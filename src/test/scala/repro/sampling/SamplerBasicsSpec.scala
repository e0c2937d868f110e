package repro.sampling

import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.hypotheses.Catalog

/** Invariants every sampler must satisfy: budget, validity, determinism. */
class SamplerBasicsSpec extends SparkSpec {

  private lazy val lg = TestGraphs.dblpSmallLocal
  private val budget = 200

  private def phaseH: Hypothesis = Catalog.dblp.path.head

  private def allSamplers: Seq[Sampler] = Seq(
    RandomNodeSampler(), DegreeBasedSampler(), RandomEdgeSampler(),
    SimpleRandomWalk(), NonBacktrackingRandomWalk(), RandomWalkWithRestart(),
    MetropolisHastingsRandomWalk(), FrontierSampler(), SnowballSampler(),
    ForestFireSampler(), ShortestPathSampler(),
    PhaseSampler(phaseH), PhaseOptSampler(phaseH))

  test("13 samplers registered with the paper's names") {
    assert(allSamplers.map(_.name).toSet == Set(
      "RNS", "DBS", "RES", "SRW", "NBRW", "RWR", "MHRW", "FrontierS",
      "SBS", "FFS", "ShortestPathS", "PHASE", "PHASEopt"))
  }

  for (s <- Seq(
    RandomNodeSampler(), DegreeBasedSampler(),
    SimpleRandomWalk(), NonBacktrackingRandomWalk(), RandomWalkWithRestart(),
    MetropolisHastingsRandomWalk(), FrontierSampler(), SnowballSampler(),
    ForestFireSampler(), ShortestPathSampler(),
    PhaseSampler(phaseH), PhaseOptSampler(phaseH))) {

    test(s"${s.name}: reaches the node budget on a connected graph") {
      val out = s.sample(lg, budget, new Random(1))
      assert(out.size == budget, s"got ${out.size}")
    }
    test(s"${s.name}: sampled nodes are valid and distinct") {
      val out = s.sample(lg, budget, new Random(2))
      assert(out.nodeIdx.forall(i => i >= 0 && i < lg.numNodes))
      assert(out.nodeIdx.distinct.length == out.nodeIdx.length)
    }
    test(s"${s.name}: deterministic under a fixed seed") {
      val a = s.sample(lg, budget, new Random(3)).nodeIdx.toSeq
      val b = s.sample(lg, budget, new Random(3)).nodeIdx.toSeq
      assert(a == b)
    }
    test(s"${s.name}: different seeds explore differently") {
      val a = s.sample(lg, budget, new Random(4)).nodeIdx.toSet
      val b = s.sample(lg, budget, new Random(5)).nodeIdx.toSet
      assert(a != b)
    }
    test(s"${s.name}: budget larger than the graph caps at |V|") {
      val out = s.sample(lg, lg.numNodes + 1000, new Random(6))
      assert(out.size <= lg.numNodes)
    }
    test(s"${s.name}: works on a graph with an edge-less node") {
      val g = TestGraphs.tinyIsolatedLocal
      val withEdges = (0 until g.numNodes).filter(g.degree(_) > 0).toSet
      for (seed <- 1 to 50) {
        assert(s.sample(g, 2, new Random(seed)).size == 2, s"budget 2, seed $seed")
        // A walk reaches the edge-less node only as a seed or a teleport
        // target, so some walks hit the step cap one node short of |V|.
        val all = s.sample(g, g.numNodes, new Random(seed)).nodeIdx.toSet
        assert(withEdges.subsetOf(all), s"budget |V|, seed $seed")
      }
    }
  }

  test("RES: respects an edge budget and returns endpoint nodes") {
    val out = RandomEdgeSampler().sample(lg, budget, new Random(1))
    val es = out.edgeIdx.get
    assert(es.length == budget)
    assert(es.distinct.length == es.length)
    assert(es.forall(e => e >= 0 && e < lg.numEdges))
    val endpoints = es.flatMap(e => Seq(lg.edgeSrc(e), lg.edgeDst(e))).toSet
    assert(out.nodeIdx.toSet == endpoints)
  }
  test("RES: deterministic under a fixed seed") {
    val a = RandomEdgeSampler().sample(lg, budget, new Random(3))
    val b = RandomEdgeSampler().sample(lg, budget, new Random(3))
    assert(a.edgeIdx.get.toSeq == b.edgeIdx.get.toSeq)
  }
  test("RES: edge budget larger than |E| caps") {
    val out = RandomEdgeSampler().sample(lg, lg.numEdges + 10, new Random(1))
    assert(out.edgeIdx.get.length == lg.numEdges)
  }

  test("partialShuffle draws what the dense shuffle draws, with the same nextInt calls") {
    val sizes = Seq(1 -> 0, 1 -> 1, 2 -> 2, 5 -> 0, 5 -> 5, 64 -> 1, 100 -> 37, 1000 -> 999, 1000 -> 1000, 100000 -> 200)
    for ((n, k) <- sizes ++ (1 to 40).map(i => (i * 7, (i * 13) % (i * 7 + 1))); seed <- 1L to 5L) {
      val (a, b) = (new Random(seed), new Random(seed))
      val got = SamplerUtil.partialShuffle(n, k, a)
      assert(got.sameElements(ReferenceSamplers.partialShuffle(n, k, b)), s"n = $n, k = $k, seed $seed")
      assert(a.nextLong() == b.nextLong(), s"RNG state after n = $n, k = $k, seed $seed")
    }
  }

  test("walk samplers work from every start on the tiny graph") {
    val tiny = TestGraphs.tinyLocal
    for (s <- allSamplers) {
      val out = s.sample(tiny, 5, new Random(11))
      assert(out.size > 0, s.name)
    }
  }
  test("ShortestPathS, SBS and FFS fill budget 1 on a one-node graph") {
    val one = TestGraphs.fromEdges(1, Nil)
    for (s <- Seq(ShortestPathSampler(), SnowballSampler(), ForestFireSampler()); seed <- 1L to 5L)
      assert(s.sample(one, 1, new Random(seed)).nodeIdx.toSeq == Seq(0), s"${s.name}, seed $seed")
  }
  test("budget of 1 yields a single node") {
    for (s <- Seq(RandomNodeSampler(), SimpleRandomWalk(), PhaseOptSampler(phaseH))) {
      assert(s.sample(lg, 1, new Random(8)).size == 1, s.name)
    }
  }
}
