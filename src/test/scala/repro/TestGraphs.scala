package repro

import org.apache.spark.sql.SparkSession

import repro.core.{Attr, AttributedGraph, LocalGraph, TableBuilder}
import repro.graphgen.GraphGen

/** Shared small graphs, built once per test JVM (suites all reuse the one
  * SparkSession, so these lazily memoize).
  */
object TestGraphs {
  private def spark: SparkSession = SparkSpec.shared

  /** Tiny hand-checkable DBLP-style graph:
    *
    *   authors: a1(MSR) a2(Chinese) a3(Other)
    *   papers:  p1(cit=100, conference) by a1,a2; p2(cit=10, journal) by a2,a3;
    *            p3(cit=50, conference) by a1
    *   venues:  v1(conference), v2(journal)
    *   fos:     f1(DM), f2(DB)
    *   edges:   Authorship: p->a; PublishedIn p1->v1 p2->v2 p3->v1;
    *            WithDomain p1->f1(0.9) p2->f2(0.4) p3->f1(0.6); Cites p1->p2.
    */
  lazy val tiny: AttributedGraph = fromTuples(tinyNodes, tinyEdges)

  private val tinyNodes = Seq(
    (1L, "author", Map[String, Any]("affiliation" -> "MSR")),
    (2L, "author", Map[String, Any]("affiliation" -> "ChineseInst")),
    (3L, "author", Map[String, Any]("affiliation" -> "Other")),
    (11L, "paper", Map[String, Any]("citation" -> 100.0, "venue_type" -> "conference", "year" -> 2020.0)),
    (12L, "paper", Map[String, Any]("citation" -> 10.0, "venue_type" -> "journal", "year" -> 2001.0)),
    (13L, "paper", Map[String, Any]("citation" -> 50.0, "venue_type" -> "conference", "year" -> 2015.0)),
    (21L, "venue", Map[String, Any]("vtype" -> "conference")),
    (22L, "venue", Map[String, Any]("vtype" -> "journal")),
    (31L, "fos", Map[String, Any]("topic" -> "DM")),
    (32L, "fos", Map[String, Any]("topic" -> "DB")))

  private val tinyEdges = Seq(
    (11L, 1L, "Authorship", Map.empty[String, Any]),
    (11L, 2L, "Authorship", Map.empty[String, Any]),
    (12L, 2L, "Authorship", Map.empty[String, Any]),
    (12L, 3L, "Authorship", Map.empty[String, Any]),
    (13L, 1L, "Authorship", Map.empty[String, Any]),
    (11L, 21L, "PublishedIn", Map.empty[String, Any]),
    (12L, 22L, "PublishedIn", Map.empty[String, Any]),
    (13L, 21L, "PublishedIn", Map.empty[String, Any]),
    (11L, 31L, "WithDomain", Map[String, Any]("weight" -> 0.9)),
    (12L, 32L, "WithDomain", Map[String, Any]("weight" -> 0.4)),
    (13L, 31L, "WithDomain", Map[String, Any]("weight" -> 0.6)),
    (11L, 12L, "Cites", Map.empty[String, Any]))

  lazy val tinyLocal: LocalGraph = LocalGraph.fromAttributed(tiny)

  /** [[tiny]] plus an author a4 without edges. */
  lazy val tinyIsolated: AttributedGraph =
    fromTuples(tinyNodes :+ ((4L, "author", Map[String, Any]("affiliation" -> "Other"))), tinyEdges)
  lazy val tinyIsolatedLocal: LocalGraph = LocalGraph.fromAttributed(tinyIsolated)

  /** The graph of these nodes (id, type, attributes) and directed edges
    * (source id, target id, type, attributes), indexed in the order given.
    * A key whose values are all numeric (see [[Attr.num]]) becomes a double
    * column, any other key a string column of `String.valueOf` its values; a
    * key with both numeric and non-numeric values is rejected. A null value
    * counts as absent.
    */
  def fromTuples(nodes: Seq[(Long, String, Map[String, Any])],
      edges: Seq[(Long, Long, String, Map[String, Any])]): AttributedGraph = {
    val b = new LocalGraph.Builder(nodes.map(_._1).toArray)
    def put(table: TableBuilder, i: Int, attrs: Map[String, Any]): Unit =
      for ((k, v) <- attrs if v != null) Attr.num(v) match {
        case Some(d) => table.num(k)(i) = d
        case None    => table.str(k)(i) = String.valueOf(v)
      }
    for (((_, t, attrs), i) <- nodes.zipWithIndex) {
      b.nodes.setType(i, b.nodes.typeCode(t))
      put(b.nodes, i, attrs)
    }
    val index = nodes.map(_._1).zipWithIndex.toMap
    for ((s, d, t, attrs) <- edges) put(b.edges, b.addEdge(index(s), index(d), b.edges.typeCode(t)), attrs)
    AttributedGraph.fromLocal(spark, b.result())
  }

  /** A graph of `n` nodes of type "node" without attributes, ids 0 to n-1,
    * and the given directed edges of type "edge", in the CSR layout every
    * `LocalGraph` has: each edge adds a forward half-edge at its source and
    * a reverse one at its target, in edge order. Multi-edges and self-loops
    * are kept.
    */
  def fromEdges(n: Int, edges: Seq[(Int, Int)]): LocalGraph = {
    val b = new LocalGraph.Builder(n)
    val node = b.nodes.typeCode("node")
    (0 until n).foreach(b.nodes.setType(_, node))
    val edge = b.edges.typeCode("edge")
    edges.foreach { case (s, d) => b.addEdge(s, d, edge) }
    b.result()
  }

  /** Small generated datasets (deterministic, shared across suites). */
  lazy val mlSmall: AttributedGraph = GraphGen.movieLens(spark, scale = 0.05)
  lazy val mlSmallLocal: LocalGraph = LocalGraph.fromAttributed(mlSmall)
  lazy val dblpSmall: AttributedGraph = GraphGen.dblp(spark, scale = 0.05)
  lazy val dblpSmallLocal: LocalGraph = LocalGraph.fromAttributed(dblpSmall)
  lazy val yelpSmall: AttributedGraph = GraphGen.yelp(spark, scale = 0.05)
  lazy val yelpSmallLocal: LocalGraph = LocalGraph.fromAttributed(yelpSmall)
}
