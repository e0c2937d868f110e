package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graphgen.GraphGen
import repro.hypotheses.Catalog
import repro.sampling.PhaseOptSampler

/** DataFrame-backed attributed graph model. */
class AttributedGraphSpec extends SparkSpec {

  private lazy val g = TestGraphs.tiny

  test("node and edge counts") {
    assert(g.nodes.count() == 10)
    assert(g.edges.count() == 12)
  }
  test("node types enumerated") {
    assert(g.nodes.select("ntype").distinct().collect().map(_.getString(0)).toSeq.sorted ==
      Seq("author", "fos", "paper", "venue"))
  }
  test("edge types enumerated") {
    assert(g.edgeTypes == Seq("Authorship", "Cites", "PublishedIn", "WithDomain"))
  }
  test("induced subgraph keeps only edges with both endpoints") {
    import spark.implicits._
    val sub = g.inducedSubgraph(Seq(1L, 11L, 2L).toDF("id"))
    assert(sub.nodes.count() == 3)
    // Only the two Authorship edges p1->a1, p1->a2 survive.
    assert(sub.edges.count() == 2)
    assert(sub.edges.select("etype").distinct().collect().map(_.getString(0)).toSeq == Seq("Authorship"))
  }
  test("induced subgraph on all nodes is identity") {
    val sub = g.inducedSubgraph(g.nodes.select("id"))
    assert(sub.nodes.count() == 10 && sub.edges.count() == 12)
  }
  test("fromTuples types numeric attributes as double") {
    val schema = g.nodes.schema
    assert(schema("citation").dataType.typeName == "double")
    assert(schema("venue_type").dataType.typeName == "string")
  }
  test("fromTuples leaves absent attributes null") {
    val authors = g.nodes.filter(org.apache.spark.sql.functions.col("ntype") === "author")
    assert(authors.filter(org.apache.spark.sql.functions.col("citation").isNotNull).count() == 0)
  }
  test("fromTuples rejects a key with both numeric and non-numeric values") {
    val nodes = Seq((1L, "a", Map[String, Any]("x" -> "abc")), (2L, "a", Map[String, Any]("x" -> 5)))
    val e = intercept[IllegalArgumentException] {
      TestGraphs.fromTuples(nodes, Seq((1L, 2L, "r", Map.empty[String, Any])))
    }
    assert(e.getMessage.contains("\"x\""), e.getMessage)
  }
  test("a generated graph whose DataFrames nothing read is freed once dropped") {
    // Its views broadcast the columns only when a job first reads them, so
    // no broadcast keeps them until Spark's cleaner gets to it.
    def dropped() = new java.lang.ref.WeakReference(LocalGraph.fromAttributed(GraphGen.yelp(spark, 0.02)).edgeCols)
    val cols = dropped()
    (0 until 3).foreach(_ => System.gc())
    assert(cols.get == null)
  }
  test("a generated graph needs no Spark until one of its tables is read") {
    // Without a session: the pipeline reads only the graph the result carries.
    val ag = GraphGen.yelp(null, 0.02)
    val g = LocalGraph.fromAttributed(ag)
    val h = Catalog.yelp.path.head
    assert(Framework.groundTruth(g, h).estimate.isDefined)
    val out = Framework.runOnce(g, h, PhaseOptSampler(h), g.numNodes / 10, new scala.util.Random(3))
    assert(out.sampledNodes > 0)
    intercept[NullPointerException](ag.nodes)
  }
  test("constructor validates required columns") {
    intercept[IllegalArgumentException] {
      AttributedGraph(g.nodes.drop("ntype"), g.edges)
    }
    intercept[IllegalArgumentException] {
      AttributedGraph(g.nodes, g.edges.drop("etype"))
    }
  }
}
