package repro.core

import scala.util.Random

import org.scalacheck.Gen

import repro.{PropSupport, SparkSpec, TestGraphs}
import repro.eval.Tables
import repro.hypotheses.Catalog
import repro.sampling.PhaseSampler

/** The S-driven [[LocalEvaluator.extract]] against the full-scan
  * [[ReferenceExtract]], on random hypotheses and random sampled graphs,
  * and against [[SparkEvaluator]] on the induced subgraph of real samples.
  * Enumerated paths (l ≠ 2) give the reference's values in its order;
  * counted two-step paths give the same multiset of values.
  */
class ExtractDifferentialSpec extends SparkSpec with PropSupport {

  override protected def propIterations: Int = 300

  private def graphs: IndexedSeq[LocalGraph] = IndexedSeq(
    TestGraphs.tinyLocal, TestGraphs.mlSmallLocal, TestGraphs.dblpSmallLocal, TestGraphs.yelpSmallLocal)

  private val ops = IndexedSeq(CmpOp.Eq, CmpOp.Ne, CmpOp.Gt, CmpOp.Lt, CmpOp.Ge, CmpOp.Le)
  private val aggs = IndexedSeq(Agg.Avg, Agg.Sum, Agg.Min, Agg.Max, Agg.Count)

  private def pick[A](xs: Seq[A], rng: Random): A = xs(rng.nextInt(xs.length))

  /** A hypothesis of length 0–4 read off a random walk in `g`, so that most
    * of them have relevant instances. Modifiers sometimes carry a predicate
    * on the walked node's own attribute; targets cover every kind, and
    * sometimes name an attribute that is absent.
    */
  private def randomHypothesis(g: LocalGraph, rng: Random): Hypothesis = {
    val nodes = scala.collection.mutable.ArrayBuffer(rng.nextInt(g.numNodes))
    val halves = scala.collection.mutable.ArrayBuffer.empty[Int]
    val want = rng.nextInt(5)
    while (halves.length < want && g.degree(nodes.last) > 0) {
      val half = g.adjOff(nodes.last) + rng.nextInt(g.degree(nodes.last))
      halves += half
      nodes += g.adjNbr(half)
    }
    val steps = halves.map { half =>
      val et = if (rng.nextInt(20) == 0) "NoSuchType" else g.edgeType(g.adjEdge(half))
      PathStep(et, reversed = !g.adjFwd(half))
    }.toVector
    val mods = nodes.map { v =>
      val attrs = g.nodeCols.row(v).toSeq
      val preds =
        if (attrs.isEmpty || rng.nextBoolean()) Nil
        else { val (a, x) = pick(attrs, rng); Seq(AttrPred(a, pick(ops, rng), x)) }
      Modifier(if (rng.nextInt(20) == 0) pick(g.ntypes.toSeq, rng) else g.nodeType(v), preds)
    }.toVector
    def attrOf(m: Map[String, Any]): String =
      if (m.isEmpty || rng.nextInt(5) == 0) "missing" else pick(m.keys.toSeq, rng)
    val target = rng.nextInt(3) match {
      case 0 if halves.nonEmpty =>
        val s = rng.nextInt(halves.length)
        EdgeAttrTarget(s, attrOf(g.edgeCols.row(g.adjEdge(halves(s)))))
      case 1 => UnitTarget
      case _ =>
        val p = rng.nextInt(nodes.length)
        NodeAttrTarget(p, attrOf(g.nodeCols.row(nodes(p))))
    }
    val agg = if (target == UnitTarget) Agg.Count else pick(aggs, rng)
    Hypothesis("random", PathSpec(mods, steps), target, agg, pick(ops, rng), rng.nextDouble())
  }

  /** Breadth-first ball of at most `k` nodes around a random node. */
  private def ball(g: LocalGraph, k: Int, rng: Random): Array[Int] = {
    val seen = new java.util.BitSet()
    val order = scala.collection.mutable.ArrayBuffer.empty[Int]
    val queue = new java.util.ArrayDeque[Integer]()
    val s = rng.nextInt(g.numNodes)
    seen.set(s); queue.add(s)
    while (!queue.isEmpty && order.length < k) {
      val v = queue.poll().intValue()
      order += v
      var h = g.adjOff(v)
      while (h < g.adjOff(v + 1)) {
        val u = g.adjNbr(h)
        if (!seen.get(u)) { seen.set(u); queue.add(u) }
        h += 1
      }
    }
    order.toArray
  }

  /** Adds duplicates and indices past the end, then shuffles. */
  private def noisy(xs: Array[Int], bound: Int, rng: Random): Array[Int] = {
    val dups = Array.fill(rng.nextInt(4))(if (xs.isEmpty) 0 else xs(rng.nextInt(xs.length)))
    val outside = Array.fill(rng.nextInt(3))(bound + rng.nextInt(10))
    rng.shuffle((xs ++ dups.filter(_ < bound) ++ outside).toSeq).toArray
  }

  /** None (all of G), or a sampled graph that may be empty, noisy, carry an
    * explicit edge set, come from a real sampler, or hold every node.
    */
  private def randomSample(g: LocalGraph, rng: Random): Option[SampledGraph] = rng.nextInt(6) match {
    case 0 => None
    case 1 => Some(SampledGraph(Array.empty))
    case 2 => Some(SampledGraph(noisy(ball(g, 1 + rng.nextInt(g.numNodes / 2 + 1), rng), g.numNodes, rng)))
    case 3 =>
      val nodes = ball(g, 1 + rng.nextInt(g.numNodes / 2 + 1), rng)
      val inBall = new java.util.BitSet(); nodes.foreach(inBall.set)
      val edges = (0 until g.numEdges).filter(e =>
        inBall.get(g.edgeSrc(e)) && inBall.get(g.edgeDst(e)) && rng.nextInt(3) > 0).toArray
      Some(SampledGraph(noisy(nodes, g.numNodes, rng), Some(noisy(edges, g.numEdges, rng))))
    case 4 =>
      val h = randomHypothesis(g, rng)
      val s = pick((Tables.samplersFor(h) + ("PHASE" -> PhaseSampler(h))).values.toSeq.sortBy(_.name), rng)
      Some(s.sample(g, 1 + rng.nextInt(g.numNodes / 4 + 1), rng))
    case _ => Some(SampledGraph(Array.range(0, g.numNodes)))
  }

  /** Number of walks (simple or not) that the hypothesis' masks and steps
    * allow inside S: an upper bound on the relevant path instances.
    */
  private def walkBound(g: LocalGraph, h: Hypothesis, s: Option[SampledGraph]): Double = {
    val inS: Int => Boolean = s.fold((_: Int) => true)(x => i => x.contains(i))
    val edgeOk: Int => Boolean = s.flatMap(_.edgeIdx).fold((_: Int) => true)(es => es.contains(_))
    def ok(p: Int, v: Int) = inS(v) && g.matches(v, h.path.modifiers(p))
    var cnt = Array.tabulate(g.numNodes)(v => if (ok(0, v)) 1.0 else 0.0)
    for (p <- 0 until h.path.length) {
      val next = new Array[Double](g.numNodes)
      val et = g.etypes.indexOf(h.path.steps(p).etype)
      for (v <- 0 until g.numNodes if cnt(v) > 0; half <- g.adjOff(v) until g.adjOff(v + 1))
        if (et >= 0 && g.halfEdgeMatches(half, h.path.steps(p), et) &&
            ok(p + 1, g.adjNbr(half)) && edgeOk(g.adjEdge(half)))
          next(g.adjNbr(half)) += cnt(v)
      cnt = next
    }
    cnt.sum
  }

  /** `extract`'s values, expanded, are the reference's `want`: in the same
    * order for l ≠ 2, as a multiset for l = 2.
    */
  private def sameValues(h: Hypothesis, got: Values, want: Array[Double]): Boolean = {
    val all = ReferenceExtract.expand(got)
    if (h.path.length == 2) ReferenceExtract.multiset(all) == ReferenceExtract.multiset(want)
    else java.util.Arrays.equals(all, want)
  }

  test("extract equals the full-scan reference on random hypotheses and samples") {
    var relevant = 0
    forAllG(Gen.choose(0, graphs.length - 1), Gen.choose(0L, Long.MaxValue)) { (gi, seed) =>
      val g = graphs(gi)
      val rng = new Random(seed)
      // Redraw the cases whose path count would blow up (long paths over hubs).
      val (h, s) = Iterator.continually((randomHypothesis(g, rng), randomSample(g, rng)))
        .find { case (h, s) => walkBound(g, h, s) <= 2e5 }.get
      val (got, n) = LocalEvaluator.extract(g, h, s)
      val (want, wantN) = ReferenceExtract(g, h, s)
      assert(sameValues(h, got, want) && n == wantN,
        s"$h on $s: ${got.count} values / $n paths, reference ${want.length} / $wantN")
      if (n > 0) relevant += 1
    }
    assert(relevant > propIterations / 3, s"only $relevant of $propIterations cases had relevant paths")
  }

  test("H(G) of every catalog hypothesis equals the full-scan reference on G") {
    val data = Seq("MovieLens" -> TestGraphs.mlSmallLocal, "DBLP" -> TestGraphs.dblpSmallLocal,
      "Yelp" -> TestGraphs.yelpSmallLocal)
    for ((name, g) <- data; h <- Catalog.all(name).all) {
      val (got, n) = LocalEvaluator.extract(g, h)
      val (want, wantN) = ReferenceExtract(g, h)
      assert(sameValues(h, got, want) && n == wantN,
        s"$name/${h.name}: ${got.count} values / $n paths, reference ${want.length} / $wantN")
      assert(n > 0, s"$name/${h.name} has no relevant path in G")
    }
  }

  test("every sampler but RES: extraction on S equals SparkEvaluator on inducedSubgraph(S)") {
    import spark.implicits._
    val data = IndexedSeq(
      ("MovieLens", TestGraphs.mlSmall, TestGraphs.mlSmallLocal),
      ("DBLP", TestGraphs.dblpSmall, TestGraphs.dblpSmallLocal),
      ("Yelp", TestGraphs.yelpSmall, TestGraphs.yelpSmallLocal))
    val names = Tables.samplerColumns.filterNot(_ == "RES") :+ "PHASE"
    val relevant = names.zipWithIndex.map { case (name, i) =>
      val (dataset, ag, g) = data(i % data.length)
      val h = Catalog.all(dataset).path(i % 3)
      val sampler = (Tables.samplersFor(h) + ("PHASE" -> PhaseSampler(h)))(name)
      val s = sampler.sample(g, g.numNodes / 4, new Random(i))
      val local = LocalEvaluator.evaluate(g, h, Some(s))
      val onS = ag.inducedSubgraph(s.nodeIdx.map(g.ids).toSeq.toDF("id"))
      val reference = SparkEvaluator.evaluate(onS, h)
      assert(local.nRelevant == reference.nRelevant, s"$name on $dataset/${h.name}")
      val same = ReferenceExtract.multiset(ReferenceExtract.expand(local.values)) ==
        ReferenceExtract.multiset(ReferenceExtract.sparkValues(onS, h))
      assert(same, s"$name on $dataset/${h.name}")
      (local.estimate, reference.estimate) match {
        case (Some(a), Some(b)) => assert(math.abs(a - b) < 1e-6, s"$name on $dataset/${h.name}: $a vs $b")
        case (a, b)             => assert(a == b, s"$name on $dataset/${h.name}")
      }
      local.nRelevant
    }
    assert(relevant.count(_ > 0) >= names.length / 2, s"relevant paths per sampler: $relevant")
  }
}
