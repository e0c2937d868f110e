package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.core.CmpOp._
import repro.hypotheses.Catalog

/** Correctness of the Catalyst evaluator against (a) DuckDB SQL over the
  * same node/edge tables and (b) the driver-side LocalEvaluator.
  */
class OracleSpec extends SparkSpec {

  private lazy val g = TestGraphs.tiny
  private lazy val lg = TestGraphs.tinyLocal

  private def conf = Modifier("paper", Seq(AttrPred("venue_type", Eq, "conference")))
  private val coauthor = PathSpec(
    Vector(Modifier("author"), Modifier("paper"), Modifier("author")),
    Vector(PathStep("Authorship", reversed = true), PathStep("Authorship")))

  // ------------------------------------------------------------ vs DuckDB

  test("oracle: node hypothesis aggregate matches DuckDB") {
    val h = Hypothesis("n", PathSpec(Vector(conf), Vector.empty),
      NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 50)
    val sparkDf = SparkEvaluator.relevantPaths(g, h).agg(avg("fval").as("v"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT avg(CAST(citation AS DOUBLE)) AS v FROM nodes " +
        "WHERE ntype='paper' AND venue_type='conference'",
      "nodes" -> g.nodes)
  }

  test("oracle: node hypothesis row set matches DuckDB") {
    val h = Hypothesis("n", PathSpec(Vector(conf), Vector.empty),
      NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 50)
    Oracle.assertEquivalent(SparkEvaluator.relevantPaths(g, h),
      "SELECT id AS n0_id, CAST(citation AS DOUBLE) AS fval FROM nodes " +
        "WHERE ntype='paper' AND venue_type='conference'",
      "nodes" -> g.nodes)
  }

  test("oracle: edge hypothesis matches DuckDB join") {
    val h = Hypothesis("e",
      PathSpec(Vector(conf, Modifier("fos", Seq(AttrPred("topic", Eq, "DM")))),
        Vector(PathStep("WithDomain"))),
      EdgeAttrTarget(0, "weight"), Agg.Avg, Gt, 0.5)
    val sparkDf = SparkEvaluator.relevantPaths(g, h).agg(avg("fval").as("v"), count(lit(1)).as("n"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT avg(CAST(e.weight AS DOUBLE)) AS v, count(*) AS n " +
        "FROM edges e JOIN nodes p ON e.src = p.id JOIN nodes f ON e.dst = f.id " +
        "WHERE e.etype='WithDomain' AND p.ntype='paper' AND p.venue_type='conference' " +
        "AND f.ntype='fos' AND f.topic='DM' AND p.id <> f.id",
      "nodes" -> g.nodes, "edges" -> g.edges)
  }

  test("oracle: co-authorship path rows match DuckDB 5-way join") {
    val h = Hypothesis("p", coauthor, NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 50)
    Oracle.assertEquivalent(SparkEvaluator.relevantPaths(g, h),
      "SELECT a1.id AS n0_id, p.id AS n1_id, a2.id AS n2_id, " +
        "CAST(p.citation AS DOUBLE) AS fval " +
        "FROM edges e1 JOIN nodes a1 ON e1.dst = a1.id JOIN nodes p ON e1.src = p.id " +
        "JOIN edges e2 ON e2.src = p.id JOIN nodes a2 ON e2.dst = a2.id " +
        "WHERE e1.etype='Authorship' AND e2.etype='Authorship' " +
        "AND a1.ntype='author' AND p.ntype='paper' AND a2.ntype='author' " +
        "AND a1.id <> a2.id AND a1.id <> p.id AND a2.id <> p.id",
      "nodes" -> g.nodes, "edges" -> g.edges)
  }

  test("oracle: length-3 path rows match DuckDB 7-way join") {
    val spec = PathSpec(
      Vector(Modifier("author"), Modifier("paper"), Modifier("paper"), Modifier("author")),
      Vector(PathStep("Authorship", reversed = true), PathStep("Cites"), PathStep("Authorship")))
    val h = Hypothesis("p3", spec, NodeAttrTarget(2, "citation"), Agg.Avg, Gt, 0)
    Oracle.assertEquivalent(SparkEvaluator.relevantPaths(g, h),
      "SELECT a1.id AS n0_id, p1.id AS n1_id, p2.id AS n2_id, a2.id AS n3_id, " +
        "CAST(p2.citation AS DOUBLE) AS fval " +
        "FROM edges e1 JOIN nodes a1 ON e1.dst = a1.id JOIN nodes p1 ON e1.src = p1.id " +
        "JOIN edges e2 ON e2.src = p1.id JOIN nodes p2 ON e2.dst = p2.id " +
        "JOIN edges e3 ON e3.src = p2.id JOIN nodes a2 ON e3.dst = a2.id " +
        "WHERE e1.etype='Authorship' AND e2.etype='Cites' AND e3.etype='Authorship' " +
        "AND a1.ntype='author' AND p1.ntype='paper' AND p2.ntype='paper' AND a2.ntype='author' " +
        "AND a1.id<>p1.id AND a1.id<>p2.id AND a1.id<>a2.id " +
        "AND p1.id<>p2.id AND p1.id<>a2.id AND p2.id<>a2.id",
      "nodes" -> g.nodes, "edges" -> g.edges)
  }

  test("oracle: count aggregate matches DuckDB") {
    val h = Hypothesis("cnt", coauthor, UnitTarget, Agg.Count, Gt, 0)
    val sparkDf = SparkEvaluator.relevantPaths(g, h).agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT count(*) AS n " +
        "FROM edges e1 JOIN nodes a1 ON e1.dst = a1.id JOIN nodes p ON e1.src = p.id " +
        "JOIN edges e2 ON e2.src = p.id JOIN nodes a2 ON e2.dst = a2.id " +
        "WHERE e1.etype='Authorship' AND e2.etype='Authorship' " +
        "AND a1.ntype='author' AND p.ntype='paper' AND a2.ntype='author' " +
        "AND a1.id <> a2.id AND a1.id <> p.id AND a2.id <> p.id",
      "nodes" -> g.nodes, "edges" -> g.edges)
  }

  // --------------------------------------- SparkEvaluator vs LocalEvaluator

  test("evaluators agree on the tiny graph across aggregates") {
    for (agg <- Seq(Agg.Avg, Agg.Sum, Agg.Min, Agg.Max)) {
      val h = Hypothesis("p", coauthor, NodeAttrTarget(1, "citation"), agg, Gt, 0)
      val s = SparkEvaluator.evaluate(g, h)
      val l = LocalEvaluator.evaluate(lg, h)
      assert(s.estimate == l.estimate && s.nRelevant == l.nRelevant, s"agg=$agg")
    }
  }

  test("evaluators agree on every MovieLens catalog hypothesis (small graph)") {
    for (h <- Catalog.movieLens.all) {
      val s = SparkEvaluator.evaluate(TestGraphs.mlSmall, h)
      val l = LocalEvaluator.evaluate(TestGraphs.mlSmallLocal, h)
      assert(s.nRelevant == l.nRelevant, s"${h.name}: nRelevant ${s.nRelevant} vs ${l.nRelevant}")
      (s.estimate, l.estimate) match {
        case (Some(a), Some(b)) => assert(math.abs(a - b) < 1e-6, s"${h.name}: $a vs $b")
        case (a, b)             => assert(a == b, s"${h.name}")
      }
    }
  }

  test("evaluators agree on every DBLP catalog hypothesis (small graph)") {
    for (h <- Catalog.dblp.all ++ Catalog.dblpLongPaths) {
      val s = SparkEvaluator.evaluate(TestGraphs.dblpSmall, h)
      val l = LocalEvaluator.evaluate(TestGraphs.dblpSmallLocal, h)
      assert(s.nRelevant == l.nRelevant, s"${h.name}: nRelevant ${s.nRelevant} vs ${l.nRelevant}")
      (s.estimate, l.estimate) match {
        case (Some(a), Some(b)) => assert(math.abs(a - b) < 1e-6, s"${h.name}: $a vs $b")
        case (a, b)             => assert(a == b, s"${h.name}")
      }
    }
  }

  test("evaluators agree on every Yelp catalog hypothesis (small graph)") {
    for (h <- Catalog.yelp.all) {
      val s = SparkEvaluator.evaluate(TestGraphs.yelpSmall, h)
      val l = LocalEvaluator.evaluate(TestGraphs.yelpSmallLocal, h)
      assert(s.nRelevant == l.nRelevant, s"${h.name}: nRelevant ${s.nRelevant} vs ${l.nRelevant}")
      (s.estimate, l.estimate) match {
        case (Some(a), Some(b)) => assert(math.abs(a - b) < 1e-6, s"${h.name}: $a vs $b")
        case (a, b)             => assert(a == b, s"${h.name}")
      }
    }
  }

  test("SparkEvaluator's relevant paths carry the t-test inputs") {
    val h = Hypothesis("p", coauthor, NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 0)
    val values = ReferenceExtract.sparkValues(g, h)
    assert(values.sorted.toSeq == Seq(10.0, 10.0, 100.0, 100.0))
  }
}
