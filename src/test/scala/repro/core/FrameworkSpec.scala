package repro.core

import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.eval.Tables
import repro.hypotheses.Catalog
import repro.sampling._

/** End-to-end framework behaviour (Figure 2): sample → extract → test. */
class FrameworkSpec extends SparkSpec {

  private lazy val lg = TestGraphs.dblpSmallLocal

  test("groundTruth matches direct evaluation") {
    val h = Catalog.dblp.node.head
    val a = Framework.groundTruth(lg, h)
    val b = LocalEvaluator.evaluate(lg, h)
    assert(a.estimate == b.estimate && a.decision == b.decision)
  }

  test("groundTruth keeps no per-path values, and the estimate, count and decision of the evaluation") {
    for ((name, g) <- Seq("MovieLens" -> TestGraphs.mlSmallLocal, "DBLP" -> lg, "Yelp" -> TestGraphs.yelpSmallLocal);
         h <- Catalog.all(name).all) {
      val truth = Framework.groundTruth(g, h)
      val full = LocalEvaluator.evaluate(g, h)
      assert(truth.values.isEmpty && truth.values.count == 0 && (truth.values eq Values.empty), h.name)
      assert(full.values.nonEmpty || h.agg == Agg.Count, h.name)
      assert(truth.estimate == full.estimate && truth.nRelevant == full.nRelevant &&
        truth.decision == full.decision, h.name)
    }
  }

  test("runOnce returns sane fields") {
    val h = Catalog.dblp.node.head
    val out = Framework.runOnce(lg, h, RandomNodeSampler(), 300, new Random(1))
    assert(out.sampledNodes == 300)
    assert(out.sampleMillis >= 0 && out.extractMillis >= 0)
    assert(out.totalMillis == out.sampleMillis + out.extractMillis)
  }

  test("runOnce attaches a t-test for Avg hypotheses with relevant values") {
    val h = Catalog.dblp.node.head
    val out = Framework.runOnce(lg, h, RandomNodeSampler(), 500, new Random(2))
    assert(out.ttest.isDefined)
    val t = out.ttest.get
    assert(t.pValue >= 0 && t.pValue <= 1)
    assert(t.ciLow <= t.mean && t.mean <= t.ciHigh)
  }

  test("runOnce's t-test equals Stats.tTest on its values, bit for bit in every field") {
    def bits(t: Stats.TTest): Seq[Long] = t.productIterator.map {
      case x: Double => java.lang.Double.doubleToRawLongBits(x)
      case n: Int    => n.toLong
    }.toSeq
    val data = Seq("MovieLens" -> TestGraphs.mlSmallLocal, "DBLP" -> TestGraphs.dblpSmallLocal,
      "Yelp" -> TestGraphs.yelpSmallLocal)
    var tested = 0
    for ((name, g) <- data; h <- Catalog.all(name).all; s <- Seq("PHASEopt", "RNS", "RES"); seed <- 1 to 3) {
      val out = Framework.runOnce(g, h, Tables.samplersFor(h)(s), g.numNodes / 4, new Random(seed))
      val want =
        if (h.agg == Agg.Avg && out.result.values.nonEmpty) Some(Stats.tTest(out.result.values, h.c, h.op))
        else None
      assert(out.ttest.map(bits) == want.map(bits), s"$s on $name/${h.name}, seed $seed")
      if (want.exists(_.n > 1)) tested += 1
    }
    assert(tested > 27 * 3 * 3 / 2, s"only $tested runs had a t-test on two or more values")
  }

  test("t-test p-value is small when the hypothesis holds with a wide margin") {
    val h = Catalog.dblp.node.head.copy(c = 5.0) // far below the true mean
    val out = Framework.runOnce(lg, h, RandomNodeSampler(), 600, new Random(3))
    assert(out.ttest.get.pValue < 0.05)
  }

  test("accuracy is 1 for an easy hypothesis with a strong sampler and budget") {
    val h = Catalog.dblp.node.head
    val truth = Framework.groundTruth(lg, h)
    val acc = Framework.accuracy(lg, h, PhaseOptSampler(h), lg.numNodes / 2, 5, 1, truth)
    assert(acc.accuracy == 1.0)
  }

  test("accuracy collapses for RES on a path hypothesis (Table 3 shape)") {
    val h = Catalog.dblp.path(2)
    val truth = Framework.groundTruth(lg, h)
    assume(truth.decision.isDefined)
    val accRes = Framework.accuracy(lg, h, RandomEdgeSampler(), 60, 5, 1, truth)
    val accPhase = Framework.accuracy(lg, h, PhaseOptSampler(h), 60, 5, 1, truth)
    assert(accPhase.accuracy >= accRes.accuracy)
  }

  test("accuracy counts missing-estimate runs as mismatches") {
    val h = Catalog.dblp.path(2) // very rare relevant paths
    val truth = Framework.groundTruth(lg, h)
    // Budget 2 can never produce a length-2 relevant path in the induced sample.
    val acc = Framework.accuracy(lg, h, RandomNodeSampler(), 2, 3, 1, truth)
    assert(acc.accuracy == 0.0)
  }

  test("accuracy requires a defined ground truth") {
    val impossible = Catalog.dblp.path.head.copy(
      path = PathSpec(
        Vector(Modifier("author", Seq(AttrPred("affiliation", CmpOp.Eq, "Nowhere"))),
          Modifier("paper"), Modifier("author")),
        Catalog.dblp.path.head.path.steps))
    intercept[IllegalArgumentException] {
      Framework.accuracy(lg, impossible, RandomNodeSampler(), 10, 2, 1,
        Framework.groundTruth(lg, impossible))
    }
  }

  test("timing averages are averages") {
    val h = Catalog.dblp.node.head
    val truth = Framework.groundTruth(lg, h)
    val acc = Framework.accuracy(lg, h, RandomNodeSampler(), 100, 4, 9, truth)
    assert(acc.runs == 4)
    assert(acc.avgTotalMillis == acc.avgSampleMillis + acc.avgExtractMillis)
    assert(acc.avgEstimate.isDefined)
  }
}
