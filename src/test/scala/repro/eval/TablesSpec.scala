package repro.eval

import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.core.{Framework, Hypothesis, Sampler}
import repro.hypotheses.Catalog
import repro.sampling.{PhaseOptSampler, PhaseSampler}

/** The table harnesses: which runs each row is made of. */
class TablesSpec extends SparkSpec {

  test("table2 estimates are the mean over the runs seeded cfg.seed+1 .. cfg.seed+runs") {
    val cfg = Tables.Config(scale = 0.05, runs = 2)
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
