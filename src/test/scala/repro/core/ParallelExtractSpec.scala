package repro.core

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}

import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.graphgen.GraphGen
import repro.hypotheses.Catalog
import repro.sampling.{PhaseOptSampler, SimpleRandomWalk}

/** Extractions with at least [[Extraction.ParallelWalks]] walks, whose
  * units run in ranges on the shared pool, against the full-scan
  * [[ReferenceExtract]]: the same values in the same order and the same
  * path count. `ExtractDifferentialSpec`'s cases stay below that bound.
  */
class ParallelExtractSpec extends SparkSpec {

  private lazy val ml = LocalGraph.fromAttributed(GraphGen.movieLens(spark, scale = 1.0))
  private lazy val yelp = LocalGraph.fromAttributed(GraphGen.yelp(spark, scale = 1.0))

  /** `h` with its edge target, the node attribute `attr` of the first and of
    * the last node as target, and a unit target.
    */
  private def targets(h: Hypothesis, attr: String): Seq[Hypothesis] = Seq(
    h,
    h.copy(name = h.name + "/first node", target = NodeAttrTarget(0, attr)),
    h.copy(name = h.name + "/last node", target = NodeAttrTarget(h.path.length, attr)),
    h.copy(name = h.name + "/unit", target = UnitTarget, agg = Agg.Count))

  private def assertParallelMatches(g: LocalGraph, h: Hypothesis, s: Option[SampledGraph], what: String): Unit = {
    val walks = LocalEvaluator.walkBound(g, h, s)
    assert(walks >= Extraction.ParallelWalks, s"$what: $walks walks run on one core")
    val (got, n) = LocalEvaluator.extract(g, h, s)
    val (want, wantN) = ReferenceExtract(g, h, s)
    assert(java.util.Arrays.equals(got, want) && n == wantN,
      s"$what: ${got.length} values / $n paths, reference ${want.length} / $wantN")
    assert(n > 0, s"$what has no relevant path")
  }

  test("H(G) of the path hypotheses with enough walks equals the full-scan reference") {
    // ML-P3 and Y-P3 have fewer than 2^16 walks on G at scale 1.
    val cases = Seq(ml -> Catalog.movieLens.path.take(2), yelp -> Catalog.yelp.path.take(2))
    for ((g, hs) <- cases; h <- hs; v <- targets(h, if (g eq ml) "year" else "checkins"))
      assertParallelMatches(g, v, None, s"H(G) of ${v.name}")
  }

  test("extraction of ML-P1 on PHASE_opt and SRW samples equals the full-scan reference") {
    val p1 = Catalog.movieLens.path.head
    for ((name, sampler) <- Seq("PHASE_opt" -> PhaseOptSampler(p1), "SRW" -> SimpleRandomWalk()); seed <- 1 to 2) {
      val s = Some(sampler.sample(ml, ml.numNodes / 20, new Random(seed)))
      for (v <- targets(p1, "year")) assertParallelMatches(ml, v, s, s"${v.name} on $name seed $seed")
    }
  }

  test("a first step back to the start node starts no path, in every range") {
    // Self-loops on a third of the nodes; every 2-step walk over them would
    // repeat its start node.
    val rng = new Random(5)
    val n = 300
    val edges = Seq.fill(6000)((rng.nextInt(n), rng.nextInt(n))) ++ (0 until n by 3).map(v => (v, v))
    val g = TestGraphs.fromEdges(n, edges)
    val node = Modifier("node", Nil)
    for (steps <- Seq(Vector(PathStep("edge"), PathStep("edge")), Vector(PathStep("edge"), PathStep("edge", reversed = true)))) {
      val h = Hypothesis("loops", PathSpec(Vector(node, node, node), steps), UnitTarget, Agg.Count, CmpOp.Gt, 0)
      assertParallelMatches(g, h, None, s"2-step paths ${steps.map(_.reversed)} on a graph with self-loops")
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
        val futures = calls.map(c => threads.submit(new Callable[(Array[Double], Long)] {
          def call(): (Array[Double], Long) = { start.await(); c() }
        }))
        start.countDown()
        futures.map(_.get(5, TimeUnit.MINUTES))
      } finally threads.shutdown()
    val want = Seq(ReferenceExtract(ml, p1), ReferenceExtract(yelp, y1, s))
    for ((((values, n), (wantValues, wantN)), what) <- got.zip(want).zip(Seq("H(G) of ML-P1", "Y-P1 on SRW"))) {
      assert(java.util.Arrays.equals(values, wantValues) && n == wantN, what)
      assert(n > 0, what)
    }
    assert(LocalEvaluator.walkBound(ml, p1) >= Extraction.ParallelWalks)
    assert(LocalEvaluator.walkBound(yelp, y1, s) >= Extraction.ParallelWalks)
  }
}
