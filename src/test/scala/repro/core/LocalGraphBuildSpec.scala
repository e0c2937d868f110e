package repro.core

import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField}

import repro.{SparkSpec, TestGraphs}
import repro.hypotheses.Catalog

/** The graph a generator or `TestGraphs.fromTuples` fills, against the
  * reference that collects the same graph back from its DataFrames
  * ([[ReferenceCollect]]).
  */
class LocalGraphBuildSpec extends SparkSpec {

  // (graph, the catalog whose modifiers it is labelled with)
  private lazy val graphs = Seq(
    "tiny" -> (TestGraphs.tiny, "DBLP"),
    "tinyIsolated" -> (TestGraphs.tinyIsolated, "DBLP"),
    "MovieLens" -> (TestGraphs.mlSmall, "MovieLens"),
    "DBLP" -> (TestGraphs.dblpSmall, "DBLP"),
    "Yelp" -> (TestGraphs.yelpSmall, "Yelp"))

  /** Comparisons on both sides of every CmpOp fallback: a string constant on
    * a double column, a number on a string column, an Int constant, the Eq
    * tolerance, and an attribute no node has.
    */
  private val edgeCases = Seq(
    AttrPred("citation", CmpOp.Gt, "50"), AttrPred("citation", CmpOp.Eq, "100.0"),
    AttrPred("venue_type", CmpOp.Lt, 5.0), AttrPred("venue_type", CmpOp.Ne, "journal"),
    AttrPred("year", CmpOp.Ge, 2015), AttrPred("citation", CmpOp.Eq, 100.0 + 1e-12),
    AttrPred("missing", CmpOp.Eq, 1.0)).map(p => Modifier("paper", Seq(p)))

  test("fromAttributed returns the graph fromTuples carries") {
    for ((name, (ag, _)) <- graphs)
      assert(LocalGraph.fromAttributed(ag) eq LocalGraph.fromAttributed(ag), name)
    val ag = TestGraphs.tiny
    assert(!(ReferenceCollect(AttributedGraph(ag.nodes, ag.edges)) eq LocalGraph.fromAttributed(ag)))
    val e = intercept[IllegalArgumentException](LocalGraph.fromAttributed(AttributedGraph(ag.nodes, ag.edges)))
    assert(e.getMessage.contains("ReferenceCollect"), e.getMessage)
  }

  test("the carried graph equals the graph collected from its DataFrames") {
    for ((name, (ag, _)) <- graphs) {
      val g = LocalGraph.fromAttributed(ag)
      val ref = ReferenceCollect(AttributedGraph(ag.nodes, ag.edges))
      def same[A](what: String, a: Array[A], b: Array[A]): Unit =
        assert(a.sameElements(b), s"$name: $what differs")
      same("ids", g.ids, ref.ids)
      same("ntypes", g.ntypes, ref.ntypes)
      same("ntypeOf", g.ntypeOf, ref.ntypeOf)
      same("etypes", g.etypes, ref.etypes)
      same("edgeSrc", g.edgeSrc, ref.edgeSrc)
      same("edgeDst", g.edgeDst, ref.edgeDst)
      same("etypeOf", g.etypeOf, ref.etypeOf)
      same("adjOff", g.adjOff, ref.adjOff)
      same("adjNbr", g.adjNbr, ref.adjNbr)
      same("adjEdge", g.adjEdge, ref.adjEdge)
      same("adjCode", g.adjCode, ref.adjCode)
      same("nodeAttrs", g.nodeAttrs, ref.nodeAttrs)
      same("edgeAttrs", g.edgeAttrs, ref.edgeAttrs)
      assert(g.nodeAttrs.exists(_.nonEmpty) && g.nodeCols.names.sameElements(ref.nodeCols.names), name)
      for (i <- 0 until g.numNodes) assert(g.indexOf(g.ids(i)) == i && ref.indexOf(ref.ids(i)) == i, name)
    }
  }

  test("every kept array has exactly |V| or |E| cells, and no presence bit past the last row") {
    for ((name, (ag, _)) <- graphs;
         (how, g) <- Seq("carried" -> LocalGraph.fromAttributed(ag),
           "collected" -> ReferenceCollect(AttributedGraph(ag.nodes, ag.edges)))) {
      val what = s"$name ($how)"
      assert(g.ntypeOf.length == g.numNodes, what)
      assert(g.edgeDst.length == g.numEdges && g.etypeOf.length == g.numEdges, what)
      for ((cols, rows) <- Seq(g.nodeCols -> g.numNodes, g.edgeCols -> g.numEdges);
           (k, c) <- cols.names.zip(cols.columns)) c match {
        case c: NumColumn => assert(c.values.length == rows && c.present.length <= rows, s"$what: $k")
        case c: StrColumn => assert(c.codes.length == rows, s"$what: $k")
      }
    }
  }

  test("attribute values are java.lang.Double or String, as a DataFrame gives them") {
    for ((name, (ag, _)) <- graphs; g = LocalGraph.fromAttributed(ag); m <- g.nodeAttrs ++ g.edgeAttrs; v <- m.values)
      assert(v.isInstanceOf[java.lang.Double] || v.isInstanceOf[String], s"$name: $v")
  }

  test("labels equal Modifier.matches on the attribute maps, for every catalog modifier") {
    for ((name, (ag, catalog)) <- graphs) {
      val g = LocalGraph.fromAttributed(ag)
      val attrs = g.nodeAttrs
      val mods = (Catalog.all(catalog).all.flatMap(_.path.modifiers) ++ edgeCases).distinct
      for (m <- mods) {
        val want = Array.tabulate(g.numNodes)(i => m.matches(g.nodeType(i), attrs(i)))
        assert(g.labels(PathSpec(Vector(m), Vector.empty))(0).sameElements(want), s"$name: $m")
        assert((0 until g.numNodes).forall(i => g.matches(i, m) == want(i)), s"$name: $m")
      }
    }
  }

  test("the edge-case modifiers select what CmpOp.eval selects on tiny") {
    val g = TestGraphs.tinyLocal
    def papers(m: Modifier): Set[Long] = (0 until g.numNodes).filter(g.matches(_, m)).map(g.ids(_)).toSet
    // "100.0" > "50" and "10.0" > "50" fail as strings; "50.0" > "50" holds.
    assert(papers(edgeCases(0)) == Set(13L))
    assert(papers(edgeCases(1)) == Set(11L))
    assert(papers(edgeCases(2)) == Set.empty)
    assert(papers(edgeCases(3)) == Set(11L, 13L))
    assert(papers(edgeCases(4)) == Set(11L, 13L))
    assert(papers(edgeCases(5)) == Set(11L))
    assert(papers(edgeCases(6)) == Set.empty)
  }

  test("fromTuples' DataFrames keep the schema and the partitions of parallelize") {
    val ag = TestGraphs.tiny
    assert(ag.nodes.schema.fields.toSeq == Seq(
      StructField("id", LongType, false), StructField("ntype", StringType, false),
      StructField("affiliation", StringType, true), StructField("citation", DoubleType, true),
      StructField("topic", StringType, true), StructField("venue_type", StringType, true),
      StructField("vtype", StringType, true), StructField("year", DoubleType, true)))
    assert(ag.edges.schema.fields.toSeq == Seq(
      StructField("src", LongType, false), StructField("dst", LongType, false),
      StructField("etype", StringType, false), StructField("weight", DoubleType, true)))
    val n = spark.sparkContext.defaultParallelism
    assert(ag.nodes.rdd.getNumPartitions == n && ag.edges.rdd.getNumPartitions == n)
    // Partition p holds rows [p*|V|/n, (p+1)*|V|/n), as parallelize slices a list.
    val ids = ag.nodes.rdd.mapPartitionsWithIndex((p, it) => it.map(r => (p, r.getLong(0)))).collect()
    val g = TestGraphs.tinyLocal
    assert(ids.map(_._2).sameElements(g.ids))
    assert(ids.map(_._1).toSeq == (0 until g.numNodes).map(i => (0 until n).find(p => i < (p + 1L) * g.numNodes / n).get))
  }
}
