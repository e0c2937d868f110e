package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.core.CmpOp._

/** Hand-computed hypothesis evaluations on the tiny DBLP-style graph, run
  * through BOTH evaluators (LocalEvaluator here; SparkEvaluator equivalence
  * and the DuckDB oracle live in OracleSpec).
  */
class EvaluatorSpec extends SparkSpec {

  private lazy val lg = TestGraphs.tinyLocal

  private def conf = Modifier("paper", Seq(AttrPred("venue_type", Eq, "conference")))
  private def paper = Modifier("paper")
  private def author(aff: String) = Modifier("author", Seq(AttrPred("affiliation", Eq, aff)))
  private def anyAuthor = Modifier("author")

  private val coauthor = PathSpec(
    Vector(anyAuthor, paper, anyAuthor),
    Vector(PathStep("Authorship", reversed = true), PathStep("Authorship")))

  private def eval(h: Hypothesis, s: Option[SampledGraph] = None) = LocalEvaluator.evaluate(lg, h, s)

  // ------------------------------------------------------- node hypotheses

  test("node: avg citation of conference papers = 75") {
    val h = Hypothesis("n", PathSpec(Vector(conf), Vector.empty), NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 50)
    val r = eval(h)
    assert(r.estimate.contains(75.0) && r.nRelevant == 2 && r.decision.contains(true))
  }
  test("node: journal papers avg = 10") {
    val h = Hypothesis("n", PathSpec(Vector(Modifier("paper", Seq(AttrPred("venue_type", Eq, "journal")))),
      Vector.empty), NodeAttrTarget(0, "citation"), Agg.Avg, Lt, 50)
    assert(eval(h).estimate.contains(10.0))
  }
  test("node: no relevant nodes gives None estimate and decision") {
    val h = Hypothesis("n", PathSpec(Vector(Modifier("paper", Seq(AttrPred("venue_type", Eq, "workshop")))),
      Vector.empty), NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 0)
    val r = eval(h)
    assert(r.estimate.isEmpty && r.decision.isEmpty && r.nRelevant == 0)
  }
  test("node: target attribute absent on relevant nodes counts paths but no values") {
    val h = Hypothesis("n", PathSpec(Vector(anyAuthor), Vector.empty), NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 0)
    val r = eval(h)
    assert(r.nRelevant == 3 && r.estimate.isEmpty)
  }

  // ------------------------------------------------------- edge hypotheses

  test("edge: conference-DM WithDomain weight avg = 0.75") {
    val h = Hypothesis("e",
      PathSpec(Vector(conf, Modifier("fos", Seq(AttrPred("topic", Eq, "DM")))), Vector(PathStep("WithDomain"))),
      EdgeAttrTarget(0, "weight"), Agg.Avg, Gt, 0.5)
    val r = eval(h)
    assert(r.estimate.exists(v => math.abs(v - 0.75) < 1e-9) && r.nRelevant == 2)
  }
  test("edge: all WithDomain edges avg") {
    val h = Hypothesis("e", PathSpec(Vector(paper, Modifier("fos")), Vector(PathStep("WithDomain"))),
      EdgeAttrTarget(0, "weight"), Agg.Avg, Gt, 0.5)
    assert(eval(h).estimate.exists(v => math.abs(v - (0.9 + 0.4 + 0.6) / 3) < 1e-9))
  }
  test("edge: forward Authorship paper->author avg citation = 54") {
    val h = Hypothesis("e", PathSpec(Vector(paper, anyAuthor), Vector(PathStep("Authorship"))),
      NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 0)
    val r = eval(h)
    assert(r.nRelevant == 5 && r.estimate.contains((100.0 + 100 + 10 + 10 + 50) / 5))
  }
  test("edge: wrong direction finds nothing") {
    // Authorship is stored paper->author; author->paper forward must be empty.
    val h = Hypothesis("e", PathSpec(Vector(anyAuthor, paper), Vector(PathStep("Authorship"))),
      NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 0)
    assert(eval(h).nRelevant == 0)
  }
  test("edge: unknown edge type finds nothing") {
    val h = Hypothesis("e", PathSpec(Vector(paper, anyAuthor), Vector(PathStep("Nope"))),
      NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 0)
    assert(eval(h).nRelevant == 0)
  }

  // ------------------------------------------------------- path hypotheses

  test("path: co-authorship avg citation = 55 over 4 ordered pairs") {
    val h = Hypothesis("p", coauthor, NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 50)
    val r = eval(h)
    assert(r.nRelevant == 4)
    assert(r.estimate.contains(55.0))
  }
  test("path: MSR first author restricts to p1") {
    val h = Hypothesis("p",
      PathSpec(Vector(author("MSR"), paper, anyAuthor), coauthor.steps),
      NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 50)
    val r = eval(h)
    assert(r.nRelevant == 1 && r.estimate.contains(100.0))
  }
  test("path: Chinese-Chinese co-authorship does not exist") {
    val h = Hypothesis("p",
      PathSpec(Vector(author("ChineseInst"), paper, author("ChineseInst")), coauthor.steps),
      NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 0)
    assert(eval(h).nRelevant == 0 && eval(h).estimate.isEmpty)
  }
  test("path: simple-path constraint excludes degenerate author-paper-author loops") {
    // Without distinctness p3 (single author a1) would yield a1-p3-a1.
    val h = Hypothesis("p", coauthor, UnitTarget, Agg.Count, Gt, 0)
    assert(eval(h).estimate.contains(4.0))
  }
  test("path: length-3 author-paper-cites-paper-author honors distinctness") {
    val spec = PathSpec(
      Vector(anyAuthor, paper, paper, anyAuthor),
      Vector(PathStep("Authorship", reversed = true), PathStep("Cites"), PathStep("Authorship")))
    val h = Hypothesis("p3", spec, NodeAttrTarget(2, "citation"), Agg.Avg, Gt, 0)
    val r = eval(h)
    // a1-p1-p2-a2, a1-p1-p2-a3, a2-p1-p2-a3 (a2-p1-p2-a2 excluded).
    assert(r.nRelevant == 3)
    assert(r.estimate.contains(10.0))
  }
  test("path: length-3 paths with narrow M_0 and M_1 equal the reference, bit for bit") {
    // p4 (citation 10) cites p1 but satisfies no M_0, so no path starts at
    // it; p1 → p2 → p3 → p1 and a1 ← p1 → p2 → a1 return to the chain at
    // the last step, so they are not simple.
    def p(id: Long, citation: Double) = (id, "paper", Map[String, Any]("citation" -> citation))
    def cites(s: Long, d: Long, w: Double) = (s, d, "Cites", Map[String, Any]("weight" -> w))
    def wrote(s: Long, d: Long, w: Double) = (s, d, "Authorship", Map[String, Any]("weight" -> w))
    val g = LocalGraph.fromAttributed(TestGraphs.fromTuples(
      Seq(p(1, 100), p(2, 80), p(3, 60), p(4, 10), p(5, 30),
        (6L, "author", Map.empty[String, Any]), (7L, "author", Map.empty[String, Any])),
      Seq(cites(1, 2, 0.5), cites(2, 3, 0.25), cites(3, 1, 0.75), cites(4, 1, 1.0), cites(2, 5, 2.0),
        cites(5, 4, 3.0), cites(3, 4, 0.125), wrote(1, 6, 0.1), wrote(2, 6, 0.2), wrote(2, 7, 0.3),
        wrote(3, 7, 0.4), wrote(4, 6, 0.5))))
    val cited = Modifier("paper", Seq(AttrPred("citation", Gt, 50)))
    val citesThrice = PathSpec(Vector(cited, cited, paper, paper), Vector.fill(3)(PathStep("Cites")))
    val viaCites = PathSpec(Vector(anyAuthor, cited, paper, anyAuthor),
      Vector(PathStep("Authorship", reversed = true), PathStep("Cites"), PathStep("Authorship")))
    val targets = Seq(NodeAttrTarget(0, "citation"), NodeAttrTarget(1, "citation"), NodeAttrTarget(3, "citation"),
      EdgeAttrTarget(0, "weight"), EdgeAttrTarget(2, "weight"), UnitTarget)
    val sample = SampledGraph(Array(0, 1, 2, 3, 5, 6))  // all but p5
    for (spec <- Seq(citesThrice, viaCites); t <- targets; s <- Seq(None, Some(sample))) {
      val h = Hypothesis("p3", spec, t, if (t == UnitTarget) Agg.Count else Agg.Avg, Gt, 0)
      val (got, n) = LocalEvaluator.extract(g, h, s)
      val (want, wantN) = ReferenceExtract(g, h, s)
      assert(wantN > 0 && n == wantN && java.util.Arrays.equals(ReferenceExtract.expand(got), want),
        s"$t on ${s.map(_.nodeIdx.toSeq)}: ${ReferenceExtract.expand(got).toSeq} / $n paths, " +
          s"reference ${want.toSeq} / $wantN")
    }
  }

  // ------------------------------------------------------------ aggregates

  private val coauthorAvg = Hypothesis("p", coauthor, NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 0)

  test("Min aggregate") {
    assert(eval(coauthorAvg.copy(agg = Agg.Min)).estimate.contains(10.0))
  }
  test("Max aggregate") {
    assert(eval(coauthorAvg.copy(agg = Agg.Max)).estimate.contains(100.0))
  }
  test("Sum aggregate") {
    assert(eval(coauthorAvg.copy(agg = Agg.Sum)).estimate.contains(220.0))
  }
  test("Count aggregate counts relevant instances even without values") {
    val h = Hypothesis("cnt", PathSpec(Vector(anyAuthor), Vector.empty), UnitTarget, Agg.Count, Gt, 2)
    val r = eval(h)
    assert(r.estimate.contains(3.0) && r.decision.contains(true))
  }

  test("Avg and Sum aggregate like Array.sum, a lone -0.0 included") {
    val h = coauthorAvg
    for (v <- Seq(Array(-0.0), Array(-0.0, -0.0), Array(0.1, 0.2, 0.3), Array(1e16, 1.0, -1e16))) {
      assert(LocalEvaluator.aggregate(h, Values(v), v.length).map(java.lang.Double.doubleToRawLongBits)
        .contains(java.lang.Double.doubleToRawLongBits(v.sum / v.length)), v.toSeq)
      assert(LocalEvaluator.aggregate(h.copy(agg = Agg.Sum), Values(v), v.length).map(java.lang.Double.doubleToRawLongBits)
        .contains(java.lang.Double.doubleToRawLongBits(v.sum)), v.toSeq)
    }
  }

  // --------------------------------------------------------------- samples

  test("sample restriction: induced subgraph on {a1, a2, p1}") {
    val s = SampledGraph(Array(lg.indexOf(1L), lg.indexOf(2L), lg.indexOf(11L)))
    val r = eval(coauthorAvg, Some(s))
    assert(r.nRelevant == 2 && r.estimate.contains(100.0))
  }
  test("sample restriction: explicit edges (RES semantics) break paths") {
    // Only the p1->a1 authorship edge: no co-author path can use two edges.
    val e = (0 until lg.numEdges).find(i =>
      lg.edgeType(i) == "Authorship" && lg.ids(lg.edgeSrc(i)) == 11L && lg.ids(lg.edgeDst(i)) == 1L).get
    val s = SampledGraph(Array(lg.indexOf(1L), lg.indexOf(11L), lg.indexOf(2L)), Some(Array(e)))
    assert(eval(coauthorAvg, Some(s)).nRelevant == 0)
  }
  test("sample with all nodes equals full evaluation") {
    val s = SampledGraph(Array.range(0, lg.numNodes))
    val (a, b) = (eval(coauthorAvg, Some(s)), eval(coauthorAvg))
    assert(a.estimate == b.estimate && a.nRelevant == b.nRelevant &&
      a.decision == b.decision && ReferenceExtract.pairs(a.values) == ReferenceExtract.pairs(b.values))
  }
  test("empty sample finds nothing") {
    val s = SampledGraph(Array.empty[Int])
    val r = eval(coauthorAvg, Some(s))
    assert(r.nRelevant == 0 && r.estimate.isEmpty)
  }
}
