package repro.sampling

import java.nio.ByteBuffer
import java.security.MessageDigest
import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.hypotheses.Catalog

/** The distributed (GraphX aggregateMessages) PHASE implementation. */
class PhaseGraphXSpec extends SparkSpec {

  private lazy val ag = TestGraphs.dblpSmall
  private lazy val lg = TestGraphs.dblpSmallLocal

  test("returns valid external node ids up to the budget") {
    val h = Catalog.dblp.path.head
    val ids = PhaseGraphX.sample(spark, ag, h, budget = 80, seed = 1)
    assert(ids.length == 80)
    assert(ids.distinct.length == ids.length)
    assert(ids.forall(id => lg.indexOf(id) >= 0))
  }

  test("deterministic for a fixed seed") {
    val h = Catalog.dblp.node.head
    val a = PhaseGraphX.sample(spark, ag, h, budget = 60, seed = 5)
    val b = PhaseGraphX.sample(spark, ag, h, budget = 60, seed = 5)
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds differ") {
    val h = Catalog.dblp.node.head
    val a = PhaseGraphX.sample(spark, ag, h, budget = 60, seed = 5)
    val b = PhaseGraphX.sample(spark, ag, h, budget = 60, seed = 6)
    assert(a.toSet != b.toSet)
  }

  test("enriches hypothesis-relevant nodes like local PHASE (vs uniform)") {
    val h = Catalog.dblp.path.head // ChineseInst co-authorship
    val lab = lg.labels(h.path)
    def frac(idx: Array[Int]): Double =
      idx.count(i => lab(0)(i)).toDouble / idx.length
    val gx = PhaseGraphX.sample(spark, ag, h, budget = 150, seed = 3)
      .map(lg.indexOf)
    val rns = RandomNodeSampler().sample(lg, 150, new Random(3)).nodeIdx
    assert(frac(gx) > frac(rns) + 0.1,
      s"graphx=${frac(gx)} rns=${frac(rns)}")
  }

  test("estimator from the distributed sample tracks the local PHASE estimator") {
    val h = Catalog.dblp.path.head
    val truth = LocalEvaluator.evaluate(lg, h).estimate.get
    val gxSample = SampledGraph(
      PhaseGraphX.sample(spark, ag, h, budget = 400, seed = 9).map(lg.indexOf).filter(_ >= 0))
    val est = LocalEvaluator.evaluate(lg, h, Some(gxSample)).estimate
    assert(est.isDefined, "distributed sample captured no relevant path")
    assert(math.abs(est.get - truth) / truth < 0.5, s"est=${est.get} truth=$truth")
  }

  test("Sampler adapter plugs into the framework") {
    val h = Catalog.dblp.node.head
    val sampler = PhaseGraphXSampler(spark, ag, h)
    val out = Framework.runOnce(lg, h, sampler, budget = 80, new Random(2))
    assert(out.sampledNodes == 80)
    assert(out.result.nRelevant > 0)
  }

  test("works for node, edge, and path hypotheses") {
    for (h <- Seq(Catalog.dblp.node.head, Catalog.dblp.edge.head, Catalog.dblp.path.head)) {
      val ids = PhaseGraphX.sample(spark, ag, h, budget = 50, seed = 11)
      assert(ids.length == 50, h.name)
    }
  }

  /** First 16 hex digits of the SHA-256 over the sampled ids, in order. */
  private def hash(ids: Array[Long]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    ids.foreach(id => md.update(ByteBuffer.allocate(8).putLong(id).array()))
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  test("golden samples: first node, edge and path hypothesis, seeds 1 and 2") {
    val got = for {
      h <- Seq(Catalog.dblp.node.head, Catalog.dblp.edge.head, Catalog.dblp.path.head)
      seed <- Seq(1L, 2L)
    } yield s"${h.name}/$seed " + hash(PhaseGraphX.sample(spark, ag, h, budget = 100, seed = seed))
    assert(got == Seq(
      "DB-N1/1 e93a19d65b6dada1", "DB-N1/2 bd68d25a97e8ab19",
      "DB-E1/1 d9ec498613024de4", "DB-E1/2 ce7074a6d309bfca",
      "DB-P1/1 b0c9a31a6131f47a", "DB-P1/2 584817e7cd82b240"))
  }

  // The seed and teleport draws index the vertex list, so its order must not
  // depend on how Spark plans the mask query.
  test("samples do not depend on the join strategy or the shuffle partitions") {
    val h = Catalog.dblp.path.head
    val base = PhaseGraphX.sample(spark, ag, h, budget = 100, seed = 4)
    val keys = Seq("spark.sql.autoBroadcastJoinThreshold", "spark.sql.shuffle.partitions")
    val saved = keys.map(k => k -> spark.conf.getOption(k))
    try {
      spark.conf.set("spark.sql.autoBroadcastJoinThreshold", 10L * 1024 * 1024)
      spark.conf.set("spark.sql.shuffle.partitions", 4L)
      assert(PhaseGraphX.sample(spark, ag, h, budget = 100, seed = 4).toSeq == base.toSeq)
    } finally saved.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None) => spark.conf.unset(k)
    }
  }
}
