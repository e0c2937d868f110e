package repro.core

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}

import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.eval.Tables
import repro.graphgen.GraphGen
import repro.hypotheses.Catalog
import repro.sampling.{PhaseOptSampler, RandomEdgeSampler, RandomNodeSampler, SimpleRandomWalk}

/** Two-step paths, which [[LocalEvaluator]] counts per middle node instead
  * of enumerating, against the full-scan [[ReferenceExtract]]: the same
  * path count, the same multiset of values once the (value, multiplicity)
  * pairs are expanded, Min, Max and Count with the reference's bits, and
  * Avg and Sum too where the sums are exact. Every catalog target is exact
  * (ratings and weights on a grid of 0.5 or 0.25, integer citations, stars
  * and checkins), so the order of the additions does not show; MovieLens'
  * user ages are not, and there the sums may differ in their last bits.
  */
class CountExtractSpec extends SparkSpec {

  private lazy val scale1: Map[String, LocalGraph] = Map(
    "MovieLens" -> LocalGraph.fromAttributed(GraphGen.movieLens(spark, scale = 1.0)),
    "DBLP" -> LocalGraph.fromAttributed(GraphGen.dblp(spark, scale = 1.0)),
    "Yelp" -> LocalGraph.fromAttributed(GraphGen.yelp(spark, scale = 1.0)))

  private val datasets = Seq("MovieLens", "DBLP", "Yelp")

  // A node attribute per node type (a string one for authors) and an edge
  // attribute per dataset (none on DBLP's authorship edges).
  private val nodeAttr = Map("movie" -> "year", "user" -> "age", "author" -> "affiliation",
    "paper" -> "citation", "business" -> "checkins")
  private val edgeAttr = Map("MovieLens" -> "rating", "DBLP" -> "weight", "Yelp" -> "stars")

  /** `h`, and `h` with a node target at each position, an edge target at
    * each step and a unit target.
    */
  private def targets(dataset: String, h: Hypothesis): Seq[Hypothesis] = h +: (
    (0 to 2).map(p => h.copy(name = s"${h.name}/node $p",
      target = NodeAttrTarget(p, if (dataset == "Yelp" && p == 1) "fans" else nodeAttr(h.path.modifiers(p).ntype)))) ++
    (0 to 1).map(s => h.copy(name = s"${h.name}/edge $s", target = EdgeAttrTarget(s, edgeAttr(dataset)))) :+
    h.copy(name = s"${h.name}/unit", target = UnitTarget, agg = Agg.Count))

  private def bits(x: Option[Double]): Option[Long] = x.map(java.lang.Double.doubleToRawLongBits)

  /** The aggregate `agg` of the reference's values and count. */
  private def referenceAggregate(agg: Agg, want: Array[Double], wantN: Long): Option[Double] = agg match {
    case Agg.Count => Some(wantN.toDouble)
    case _ if want.isEmpty => None
    case Agg.Avg => Some(Stats.sum(want) / want.length)
    case Agg.Sum => Some(Stats.sum(want))
    case Agg.Min => Some(want.min)
    case Agg.Max => Some(want.max)
  }

  /** `h` on `s` against the reference: the path count, the values as a
    * multiset, every aggregate, and the t-test of the pairs against that of
    * the values (its sd, the sum of squared deviations times
    * multiplicities, may differ in its last bits). Returns the count.
    */
  private def assertCounted(g: LocalGraph, h: Hypothesis, s: Option[SampledGraph], what: String): Long = {
    assert(h.path.length == 2, what)
    val (got, n) = LocalEvaluator.extract(g, h, s)
    val (want, wantN) = ReferenceExtract(g, h, s)
    assert(n == wantN, s"$what: $n paths, reference $wantN")
    assert(got.count == want.length, s"$what: ${got.count} values in ${got.size} pairs, reference ${want.length}")
    val sameMultiset = ReferenceExtract.multiset(ReferenceExtract.expand(got)) == ReferenceExtract.multiset(want)
    assert(sameMultiset, s"$what: another multiset of values")
    // Sums of multiples of 0.25 far below 2^50 are exact in any order. Other
    // sums of n positive values are each within n·2^-53 relative of the true
    // sum: 1e-9 for the million values here.
    val exact = want.forall(v => v * 4 == math.rint(v * 4) && math.abs(v) < 1e6)
    def same(a: Option[Double], b: Option[Double]): Boolean =
      if (exact) bits(a) == bits(b)
      else a.isDefined == b.isDefined && a.zip(b).forall { case (x, y) => math.abs(x - y) <= 1e-9 * math.abs(y) }
    val any = Hypothesis("any", PathSpec(Vector(Modifier("node")), Vector.empty), NodeAttrTarget(0, "x"), Agg.Avg, CmpOp.Gt, 0)
    for (agg <- Seq(Agg.Avg, Agg.Sum, Agg.Min, Agg.Max, Agg.Count))
      assert(same(LocalEvaluator.aggregate(any.copy(agg = agg), got, n), referenceAggregate(agg, want, wantN)),
        s"$what: $agg")
    if (want.nonEmpty) {
      val (a, b) = (Stats.tTest(got, 1.0, CmpOp.Gt), Stats.tTest(want, 1.0, CmpOp.Gt))
      assert(a.n == b.n && same(Some(a.mean), Some(b.mean)), what)
      assert(math.abs(a.sd - b.sd) <= 1e-9 * b.sd && math.abs(a.pValue - b.pValue) <= 1e-9, s"$what: $a against $b")
    }
    n
  }

  test("H(G) of the path hypotheses at scale 1 equals the reference") {
    for (d <- datasets; h <- Catalog.all(d).path; v <- targets(d, h)) {
      val n = assertCounted(scale1(d), v, None, s"H(G) of ${v.name}")
      assert(n > 0, s"H(G) of ${v.name} has no relevant path")
    }
  }

  test("path hypotheses on PHASE_opt, SRW, RNS and RES samples") {
    val samplers = Seq("PHASEopt", "SRW", "RNS", "RES")
    var relevant = 0
    for (d <- datasets; h <- Catalog.all(d).path; name <- samplers; seed <- 1 to 2) {
      val g = scale1(d)
      val budget = (Tables.proportions((d, "path")) / 100.0 * g.numNodes).toInt
      val s = Tables.samplersFor(h)(name).sample(g, budget, new Random(seed))
      for (v <- if (seed == 1) targets(d, h) else Seq(h))
        if (assertCounted(g, v, Some(s), s"${v.name} on $name seed $seed") > 0) relevant += 1
    }
    assert(relevant > 100, s"only $relevant cases had relevant paths")
  }

  test("ML-P1 on PHASE_opt and SRW samples equals the reference") {
    val p1 = Catalog.movieLens.path.head
    val ml = scale1("MovieLens")
    for ((name, sampler) <- Seq("PHASE_opt" -> PhaseOptSampler(p1), "SRW" -> SimpleRandomWalk()); seed <- 1 to 2) {
      val s = Some(sampler.sample(ml, ml.numNodes / 20, new Random(seed)))
      for (v <- targets("MovieLens", p1)) assert(assertCounted(ml, v, s, s"${v.name} on $name seed $seed") > 0)
    }
  }

  /** A graph of 40 nodes of two types, "hub" and "leaf", with edges of two
    * types, "a" and "b": random edges, a fifth of them repeated
    * (multi-edges), and self-loops on every fifth node. A node has a double
    * "x" (a multiple of 0.5, absent on about a quarter) and a string "s";
    * an edge has a double "w" (a multiple of 0.25, absent on about a
    * quarter).
    */
  private def handBuilt(seed: Int): LocalGraph = {
    val rng = new Random(seed)
    val n = 40
    val nodes = (0 until n).map { i =>
      (i.toLong, if (i % 3 == 0) "hub" else "leaf",
        Map[String, Any]("x" -> (if (rng.nextInt(4) == 0) null else rng.nextInt(20) * 0.5), "s" -> s"v${rng.nextInt(3)}"))
    }
    val random = Seq.fill(120)((rng.nextInt(n), rng.nextInt(n)))
    val edges = (random ++ random.take(24) ++ (0 until n by 5).map(v => (v, v))).map { case (s, d) =>
      (s.toLong, d.toLong, if (rng.nextInt(3) == 0) "b" else "a",
        Map[String, Any]("w" -> (if (rng.nextInt(4) == 0) null else rng.nextInt(10) * 0.25)))
    }
    LocalGraph.fromAttributed(TestGraphs.fromTuples(nodes, edges))
  }

  test("multi-edges, self-loops and back edges, every target and every sample kind") {
    val steps = for (t <- Seq("a", "b"); r <- Seq(false, true)) yield PathStep(t, reversed = r)
    val types = Seq("hub", "leaf")
    var relevant = 0
    for (seed <- 1 to 3) {
      val g = handBuilt(seed)
      val rng = new Random(seed)
      val samples = Seq(None, Some(RandomNodeSampler().sample(g, g.numNodes / 2, rng)),
        Some(RandomEdgeSampler().sample(g, g.numEdges / 2, rng)))
      for (t0 <- types; t1 <- types; t2 <- types; s0 <- steps; s1 <- steps) {
        val path = PathSpec(Vector(Modifier(t0), Modifier(t1), Modifier(t2)), Vector(s0, s1))
        val hs = (0 to 2).flatMap(p => Seq("x", "s", "missing").map(NodeAttrTarget(p, _))) ++
          (0 to 1).flatMap(s => Seq("w", "missing").map(EdgeAttrTarget(s, _)))
        for (target <- hs :+ UnitTarget; s <- samples) {
          val h = Hypothesis("hand", path, target, if (target == UnitTarget) Agg.Count else Agg.Avg, CmpOp.Gt, 0)
          if (assertCounted(g, h, s, s"$path with $target on ${s.map(_.size)} (seed $seed)") > 0) relevant += 1
        }
      }
    }
    assert(relevant > 1000, s"only $relevant cases had relevant paths")
  }

  test("a first step back to the start node starts no path") {
    // Self-loops on a third of the nodes; every 2-step walk over them would
    // repeat its start node.
    val rng = new Random(5)
    val n = 300
    val edges = Seq.fill(6000)((rng.nextInt(n), rng.nextInt(n))) ++ (0 until n by 3).map(v => (v, v))
    val g = TestGraphs.fromEdges(n, edges)
    val node = Modifier("node", Nil)
    for (steps <- Seq(Vector(PathStep("edge"), PathStep("edge")), Vector(PathStep("edge"), PathStep("edge", reversed = true)))) {
      val h = Hypothesis("loops", PathSpec(Vector(node, node, node), steps), UnitTarget, Agg.Count, CmpOp.Gt, 0)
      assert(assertCounted(g, h, None, s"2-step paths ${steps.map(_.reversed)} on a graph with self-loops") > 0)
    }
  }

  test("two callers at once get the reference results") {
    // Graphs of their own, so that both callers also fill the mask caches.
    val ml = LocalGraph.fromAttributed(GraphGen.movieLens(spark, scale = 1.0))
    val yelp = LocalGraph.fromAttributed(GraphGen.yelp(spark, scale = 1.0))
    val (p1, y1) = (Catalog.movieLens.path.head, Catalog.yelp.path.head)
    val s = Some(SimpleRandomWalk().sample(yelp, yelp.numNodes / 8, new Random(1)))
    val calls = Seq(() => LocalEvaluator.extract(ml, p1), () => LocalEvaluator.extract(yelp, y1, s))
    val threads = Executors.newFixedThreadPool(calls.length)
    val start = new CountDownLatch(1)
    val got =
      try {
        val futures = calls.map(c => threads.submit(new Callable[(Values, Long)] {
          def call(): (Values, Long) = { start.await(); c() }
        }))
        start.countDown()
        futures.map(_.get(5, TimeUnit.MINUTES))
      } finally threads.shutdown()
    val want = Seq(ReferenceExtract(ml, p1), ReferenceExtract(yelp, y1, s))
    for ((((values, n), (wantValues, wantN)), what) <- got.zip(want).zip(Seq("H(G) of ML-P1", "Y-P1 on SRW"))) {
      val same = ReferenceExtract.multiset(ReferenceExtract.expand(values)) == ReferenceExtract.multiset(wantValues)
      assert(same && n == wantN, what)
      assert(n > 0, what)
    }
  }
}
