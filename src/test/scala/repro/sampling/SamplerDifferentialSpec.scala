package repro.sampling

import scala.util.Random

import org.scalacheck.Gen

import repro.{PropSupport, SparkSpec, TestGraphs}
import repro.core.{LocalGraph, SampledGraph, Sampler}
import repro.graphgen.GraphGen

/** ShortestPathS, SBS and FFS against the slow [[ReferenceSamplers]]: the
  * same S in the same order, and the RNG left in the same state, on random
  * graphs with multi-edges, self-loops, several components and edge-less
  * nodes, on the `TestGraphs` graphs and a graph of hubs, on DBLP and Yelp
  * at scale 1, and at budgets 1, 2, |V|/2, |V| and past |V|.
  */
class SamplerDifferentialSpec extends SparkSpec with PropSupport {

  override protected def propIterations: Int = 300

  private type Sample = (LocalGraph, Int, Random) => SampledGraph

  private def pairs: Seq[(String, Sampler, Sample)] = Seq(
    ("ShortestPathS", ShortestPathSampler(), ReferenceSamplers.shortestPath),
    ("SBS(5)", SnowballSampler(5), ReferenceSamplers.snowball(5)),
    ("SBS(2)", SnowballSampler(2), ReferenceSamplers.snowball(2)),
    ("FFS(0.7)", ForestFireSampler(0.7), ReferenceSamplers.forestFire(0.7)),
    ("FFS(0.4)", ForestFireSampler(0.4), ReferenceSamplers.forestFire(0.4)))

  private def budgets(g: LocalGraph): Seq[Int] =
    Seq(1, 2, g.numNodes / 2, g.numNodes, g.numNodes + 7).distinct

  private def assertSame(g: LocalGraph, budget: Int, seed: Long, what: String): Unit =
    for ((name, fast, reference) <- pairs) {
      val rngA = new Random(seed)
      val rngB = new Random(seed)
      val got = fast.sample(g, budget, rngA).nodeIdx
      val want = reference(g, budget, rngB).nodeIdx
      assert(java.util.Arrays.equals(got, want),
        s"$name on $what, budget $budget, seed $seed: ${got.mkString(",")} vs reference ${want.mkString(",")}")
      assert(rngA.nextLong() == rngB.nextLong(), s"$name on $what, budget $budget, seed $seed: RNG state")
    }

  /** 2–40 nodes in 1–4 components; some nodes have no edges. Edges join
    * nodes of one component, and some are repeated or self-loops.
    */
  private def randomEdges(rng: Random): (Int, Vector[(Int, Int)]) = {
    val n = 2 + rng.nextInt(39)
    val comps = 1 + rng.nextInt(4)
    val comp = Array.fill(n)(rng.nextInt(comps))
    val linked = (0 until n).filter(_ => rng.nextInt(8) > 0)
    val plain = if (linked.isEmpty) Vector.empty else Vector.fill(rng.nextInt(3 * n)) {
      val u = linked(rng.nextInt(linked.length))
      val same = linked.filter(comp(_) == comp(u))
      (u, same(rng.nextInt(same.length)))
    }
    val repeated = Vector.fill(if (plain.isEmpty) 0 else rng.nextInt(4))(plain(rng.nextInt(plain.length)))
    val loops = Vector.fill(rng.nextInt(3)) { val u = rng.nextInt(n); (u, u) }
    (n, rng.shuffle(plain ++ repeated ++ loops))
  }

  test("ShortestPathS, SBS and FFS equal the references on random graphs") {
    forAllG(Gen.choose(0L, Long.MaxValue)) { graphSeed =>
      val (n, edges) = randomEdges(new Random(graphSeed))
      val g = TestGraphs.fromEdges(n, edges)
      for (budget <- budgets(g); seed <- 1L to 4L)
        assertSame(g, budget, seed, s"$n nodes, edges $edges")
    }
  }

  /** Two hubs, 0 and 9, each with eight leaves, a multi-edge to its first
    * leaf and a self-loop, joined through node 18 and through 19–20; leaf
    * 5 has a tail, 5–21–22, and leaf 12 a longer one, 12–23–24–25. Node 26
    * reaches node 27 and then hub 0; node 28 reaches hub 0 first, then 27,
    * and has three leaves. Node 32 reaches leaf 2, then leaf 1, which hub 0
    * reaches first. Pairs put hubs on both sides of the meeting, so both
    * ways of finding a hub's first neighbor one step closer to t run; the
    * search for the meeting node runs past its bound on most pairs and ends
    * within it on some, such as (26, 28), where it finds 27, a node the
    * t-side has not seen.
    */
  private lazy val hubs: LocalGraph = TestGraphs.fromEdges(33,
    (1 to 8).map((0, _)) ++ Seq((0, 1), (1, 0), (0, 0)) ++
      (10 to 17).map((9, _)) ++ Seq((10, 9), (9, 10), (9, 9)) ++
      Seq((0, 18), (18, 9), (0, 19), (19, 20), (20, 9), (18, 19)) ++
      Seq((5, 21), (21, 22), (12, 23), (23, 24), (24, 25)) ++
      Seq((26, 27), (26, 0), (28, 0), (27, 28), (28, 29), (28, 30), (28, 31), (32, 2), (32, 1)))

  test("ShortestPathS, SBS and FFS equal the references on the tiny graphs") {
    for ((what, g) <- Seq("tiny" -> TestGraphs.tinyLocal, "tinyIsolated" -> TestGraphs.tinyIsolatedLocal,
           "hubs" -> hubs);
         budget <- budgets(g); seed <- 1L to 50L)
      assertSame(g, budget, seed, what)
  }

  test("ShortestPathS, SBS and FFS equal the references on the scale-0.05 datasets") {
    for ((what, g) <- Seq("MovieLens" -> TestGraphs.mlSmallLocal, "DBLP" -> TestGraphs.dblpSmallLocal,
           "Yelp" -> TestGraphs.yelpSmallLocal)) {
      for (budget <- Seq(1, 2, math.max(20, g.numNodes / 10)); seed <- 1L to 20L)
        assertSame(g, budget, seed, what)
      for (budget <- budgets(g).drop(2); seed <- 1L to 2L)
        assertSame(g, budget, seed, what)
    }
    // Scale 1 at the grid budgets, with its zipf-skewed hub rows.
    for ((what, g, budget) <- Seq(("DBLP", GraphGen.dblp(spark, scale = 1.0), 812),
           ("Yelp", GraphGen.yelp(spark, scale = 1.0), 500)); seed <- 1L to 5L)
      assertSame(LocalGraph.fromAttributed(g), budget, seed, s"$what at scale 1")
  }
}
