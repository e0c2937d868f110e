package repro.sampling

import java.security.MessageDigest
import java.nio.ByteBuffer
import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.core.{Hypothesis, LocalEvaluator, LocalGraph, Sampler}
import repro.eval.Tables
import repro.hypotheses.Catalog

/** Pins what every sampler draws, and what the local evaluator estimates
  * on it, to hashes recorded once. Each hash covers, for the first node,
  * edge and path hypothesis of a dataset and seeds 1–3: S (node and edge
  * indices in sampler order), the relevant-instance count and the raw bits
  * of the estimate. A change that is meant to keep samples and estimates
  * bit-identical must pass this suite unchanged.
  */
class GoldenSampleSpec extends SparkSpec {

  private val seeds = Seq(1L, 2L, 3L)

  /** The Table 3/4 samplers plus PHASE, by name. */
  private def samplers(h: Hypothesis): Map[String, Sampler] =
    Tables.samplersFor(h) + ("PHASE" -> PhaseSampler(h))

  private def defaultBudget(g: LocalGraph): Int = math.max(20, g.numNodes / 10)

  /** Branches the default samplers and budget rarely take: PHASE_opt with
    * n = 1 probes a hub's neighbors at almost every step; at budget |V|/2
    * neighborhoods run out and PHASE_opt walkers teleport; and RWR, SBS and
    * FFS with non-default parameters.
    */
  private val rareCases: Seq[(String, Hypothesis => Sampler, LocalGraph => Int)] = Seq(
    ("PHASEopt n=1", h => PhaseOptSampler(h, n = 1), defaultBudget),
    ("PHASE |V|/2", h => PhaseSampler(h), g => g.numNodes / 2),
    ("PHASEopt |V|/2", h => PhaseOptSampler(h), g => g.numNodes / 2),
    ("RWR 0.3", _ => RandomWalkWithRestart(0.3), defaultBudget),
    ("SBS 2", _ => SnowballSampler(2), defaultBudget),
    ("FFS 0.4", _ => ForestFireSampler(0.4), defaultBudget))

  private def digest(g: LocalGraph, dataset: String, sampler: String): String =
    digest(g, dataset, h => samplers(h)(sampler), defaultBudget(g))

  private def digest(g: LocalGraph, dataset: String, sampler: Hypothesis => Sampler,
      budget: Int): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def put(xs: Long*): Unit = xs.foreach(x => md.update(ByteBuffer.allocate(8).putLong(x).array()))
    for {
      kind <- Seq("node", "edge", "path")
      h = Catalog.all(dataset).byKind(kind).head
      seed <- seeds
    } {
      val s = sampler(h).sample(g, budget, new Random(seed))
      put(s.nodeIdx.length.toLong)
      s.nodeIdx.foreach(i => put(i.toLong))
      s.edgeIdx.foreach { es => put(es.length.toLong); es.foreach(e => put(e.toLong)) }
      val r = LocalEvaluator.evaluate(g, h, Some(s))
      put(r.nRelevant)
      r.estimate.foreach(e => put(java.lang.Double.doubleToRawLongBits(e)))
    }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  private val golden: Map[String, Map[String, String]] = Map(
    "MovieLens" -> Map(
      "PHASEopt" -> "e3930aa6494f8e4c",
      "RES" -> "db92ffeb45aad792",
      "RNS" -> "a39a763f673baf14",
      "DBS" -> "1f23bc601a8cb780",
      "SRW" -> "54952c02cc98df57",
      "NBRW" -> "56c7525e2a421ea8",
      "RWR" -> "c756f5b890991054",
      "MHRW" -> "3120a411bab0bd2a",
      "ShortestPathS" -> "aa0718845ce888a3",
      "FrontierS" -> "0d4acabf29432ee1",
      "FFS" -> "295e3f813f2a53ac",
      "SBS" -> "6f3542a4dcbb6dd7",
      "PHASE" -> "56f5f4c0dad7e817"),
    "DBLP" -> Map(
      "PHASEopt" -> "176406d9df75ad18",
      "RES" -> "936134e2014615ae",
      "RNS" -> "f1386c0aa3c99001",
      "DBS" -> "7023aa1850225ac6",
      "SRW" -> "fbbdc1dbfce7af1f",
      "NBRW" -> "1b37371a1758d5c1",
      "RWR" -> "6ac80aa4dfe87dc2",
      "MHRW" -> "e472b8e72dab950d",
      "ShortestPathS" -> "0a56acaa0dcd3b50",
      "FrontierS" -> "3bdd947d99c317ec",
      "FFS" -> "682a20db0ef866c6",
      "SBS" -> "af19d235f1298768",
      "PHASE" -> "cf38619dd55dc080"),
    "Yelp" -> Map(
      "PHASEopt" -> "3d767317b4bd3be6",
      "RES" -> "fc7f7b0392360941",
      "RNS" -> "ad3fcac5d215469c",
      "DBS" -> "df5ff96e8b1765b7",
      "SRW" -> "2a3e8d1ef6454bc1",
      "NBRW" -> "e1b5863dcc985d2b",
      "RWR" -> "7a8d05e83768667d",
      "MHRW" -> "14b78c73cf0c2889",
      "ShortestPathS" -> "7e75d6a8def960bc",
      "FrontierS" -> "e3a245d3e97f86c2",
      "FFS" -> "d71fb4d4364f0cdb",
      "SBS" -> "8417ca7bcab88f45",
      "PHASE" -> "8c520fa945cceceb"))

  private val rareGolden: Map[String, Map[String, String]] = Map(
    "MovieLens" -> Map(
      "PHASEopt n=1" -> "8b8e6d0749c3f697",
      "PHASE |V|/2" -> "3043b8df95db17b1",
      "PHASEopt |V|/2" -> "4fdee748263cee87",
      "RWR 0.3" -> "b180daa0e5c9f79d",
      "SBS 2" -> "e79771b6876195cd",
      "FFS 0.4" -> "eac41917a376e535"),
    "DBLP" -> Map(
      "PHASEopt n=1" -> "ca2a6b77b72b4011",
      "PHASE |V|/2" -> "a52919f93ca8b335",
      "PHASEopt |V|/2" -> "df2911f36ffe3fa2",
      "RWR 0.3" -> "12561e47d1cb41c8",
      "SBS 2" -> "f0675aa55176f2b4",
      "FFS 0.4" -> "88a1542d25f41b5d"),
    "Yelp" -> Map(
      "PHASEopt n=1" -> "91929b1c81867095",
      "PHASE |V|/2" -> "9536d995ae1da876",
      "PHASEopt |V|/2" -> "4c08779c17537f98",
      "RWR 0.3" -> "771e2acbefa2a6b9",
      "SBS 2" -> "7692afc92b05fd72",
      "FFS 0.4" -> "8662a1b02bc53942"))

  private def check(dataset: String, g: => LocalGraph): Unit =
    test(s"samples and estimates on $dataset match the recorded hashes") {
      val names = Tables.samplerColumns :+ "PHASE"
      val got = names.map(n => n -> digest(g, dataset, n)).toMap
      val bad = names.filter(n => !golden(dataset).get(n).contains(got(n)))
      assert(bad.isEmpty, s"changed: ${bad.map(n => s"$n ${got(n)}").mkString(", ")}")
    }

  private def checkRare(dataset: String, g: => LocalGraph): Unit =
    test(s"rarely-hit sampler branches on $dataset match the recorded hashes") {
      val got = rareCases.map { case (n, sampler, budget) => n -> digest(g, dataset, sampler, budget(g)) }
      val bad = got.filter { case (n, d) => !rareGolden(dataset).get(n).contains(d) }
      assert(bad.isEmpty, s"changed: ${bad.map { case (n, d) => s"$n $d" }.mkString(", ")}")
    }

  check("MovieLens", TestGraphs.mlSmallLocal)
  check("DBLP", TestGraphs.dblpSmallLocal)
  check("Yelp", TestGraphs.yelpSmallLocal)
  checkRare("MovieLens", TestGraphs.mlSmallLocal)
  checkRare("DBLP", TestGraphs.dblpSmallLocal)
  checkRare("Yelp", TestGraphs.yelpSmallLocal)
}
