package repro.eval

import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.core.{Framework, Hypothesis, Sampler}
import repro.hypotheses.Catalog
import repro.sampling.{PhaseOptSampler, PhaseSampler}

/** The table harnesses: which runs each row is made of, and what Tables 1
  * and 3 print at scale 0.05. Table 4 holds timings and is not pinned.
  */
class TablesSpec extends SparkSpec {

  private val small = Tables.Config(scale = 0.05, runs = 2)

  /** The first 16 hex digits of the SHA-256 of `text`. */
  private def sha(text: String): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(text.getBytes("UTF-8"))
      .take(8).map(b => f"${b & 0xff}%02x").mkString

  test("datasetStats density is |E| / (|V| (|V|-1))") {
    val row = Tables.datasetStats("tiny", TestGraphs.tinyLocal)
    assert((row.nodes, row.edges, row.nodeTypes, row.edgeTypes) == ((10L, 12L, 4, 4)))
    assert(math.abs(row.density - 12.0 / (10 * 9)) < 1e-12)
  }
  test("Table 1 prints the same text at scale 0.05") {
    val text = Tables.renderTable1(Tables.table1(spark, small))
    assert(sha(text) == "6282ce71d9b4638b", text)
  }
  test("Table 3 prints the same text at scale 0.05 with 2 runs") {
    val text = Tables.renderTable3(Tables.grid(spark, small))
    assert(sha(text) == "61502021f1650f56", text)
  }

  test("table2 estimates are the mean over the runs seeded cfg.seed+1 .. cfg.seed+runs") {
    val cfg = small
    val rows = Tables.table2(spark, cfg)
    val lg = TestGraphs.dblpSmallLocal
    val budget = math.max(1, (Tables.table2ProportionPct / 100.0 * lg.numNodes).toInt)
    val hyps = Seq(Catalog.dblp.node.head, Catalog.dblp.edge.head, Catalog.dblp.path.head)
    def mean(s: Sampler, h: Hypothesis): Option[Double] = {
      val ests = (1 to cfg.runs).flatMap(r =>
        Framework.runOnce(lg, h, s, budget, new Random(cfg.seed + r)).result.estimate)
      if (ests.isEmpty) None else Some(ests.foldLeft(0.0)(_ + _) / ests.length)
    }
    assert(rows.map(_.hypothesis) == hyps.map(_.name))
    rows.zip(hyps).foreach { case (row, h) =>
      assert(row.phaseEstimate.isDefined && row.phaseOptEstimate.isDefined, h.name)
      assert(row.phaseEstimate == mean(PhaseSampler(h), h), h.name)
      assert(row.phaseOptEstimate == mean(PhaseOptSampler(h), h), h.name)
    }
  }
}
