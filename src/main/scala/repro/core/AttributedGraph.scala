package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructType}
import scala.collection.mutable

/** An attributed graph (paper Def. 1) backed by two DataFrames.
  *
  * `nodes` must have columns `id: long`, `ntype: string`, plus one flat
  * column per attribute (nullable for node types that lack it).
  * `edges` must have columns `src: long`, `dst: long`, `etype: string`,
  * plus flat attribute columns. Edges are directed; the inverse relation
  * r^-1 is available implicitly (walkers may traverse edges backwards and
  * path steps may be declared `reversed`).
  *
  * A graph made by [[AttributedGraph.fromTuples]] carries its driver-side
  * [[LocalGraph]] in `local`, and its DataFrames are views of that graph's
  * columns; one made from DataFrames alone carries none, and
  * `LocalGraph.fromAttributed` collects it.
  */
final case class AttributedGraph(nodes: DataFrame, edges: DataFrame,
    private[core] val local: Option[LocalGraph] = None) {
  require(Seq("id", "ntype").forall(nodes.columns.contains(_)),
    s"nodes needs id/ntype columns, got ${nodes.columns.mkString(",")}")
  require(Seq("src", "dst", "etype").forall(edges.columns.contains(_)),
    s"edges needs src/dst/etype columns, got ${edges.columns.mkString(",")}")

  def numNodes: Long = nodes.count()
  def numEdges: Long = edges.count()

  /** Directed density |E| / (|V| * (|V|-1)), as reported in paper Table 1. */
  def density: Double = {
    val v = numNodes.toDouble
    if (v <= 1) 0.0 else numEdges.toDouble / (v * (v - 1))
  }

  def nodeTypes: Seq[String] =
    nodes.select("ntype").distinct().collect().map(_.getString(0)).toSeq.sorted
  def edgeTypes: Seq[String] =
    edges.select("etype").distinct().collect().map(_.getString(0)).toSeq.sorted

  /** Induced subgraph on the given node ids: keeps every edge whose both
    * endpoints survive (the paper's S for node-collecting samplers).
    */
  def inducedSubgraph(nodeIds: DataFrame): AttributedGraph = {
    val keep = nodeIds.select(col(nodeIds.columns.head) as "id").distinct()
    val n2 = nodes.join(keep, Seq("id"), "left_semi")
    val e2 = edges
      .join(keep.select(col("id") as "src"), Seq("src"), "left_semi")
      .join(keep.select(col("id") as "dst"), Seq("dst"), "left_semi")
    AttributedGraph(n2, e2)
  }
}

object AttributedGraph {
  /** Convenience constructor from in-memory tuples (generators, tests).
    * `nodeRows` = (id, ntype, attrs); `edgeRows` = (src, dst, etype, attrs).
    * Each distinct attribute key becomes one nullable column, in key order.
    * A key whose values are all numeric (see [[Attr.num]]) becomes a double
    * column, any other key a string column of `String.valueOf` its values.
    * A key with both numeric and non-numeric values is rejected. A null value
    * counts as absent; an absent value is null.
    *
    * The tuples fill one [[LocalGraph]], which the result carries. Each
    * DataFrame reads that graph's columns through one broadcast, row i of
    * partition p where `parallelize` would put it, so the driver keeps no
    * rows.
    */
  def fromTuples(
      spark: SparkSession,
      nodeRows: Seq[(Long, String, Map[String, Any])],
      edgeRows: Seq[(Long, Long, String, Map[String, Any])]): AttributedGraph = {
    // The columns of some rows' keys, in key order: (key, numeric?).
    def keys(rows: Iterator[Map[String, Any]]): Seq[(String, Boolean)] = {
      // Per key, the kinds of its values: bit 0 numeric, bit 1 not numeric.
      val kinds = mutable.HashMap.empty[String, Int]
      for (attrs <- rows; (k, v) <- attrs if v != null)
        kinds(k) = kinds.getOrElse(k, 0) | (if (Attr.num(v).isDefined) 1 else 2)
      for ((k, kind) <- kinds)
        require(kind != 3, s"attribute key \"$k\" has both numeric and non-numeric values")
      kinds.toSeq.sortBy(_._1).map { case (k, kind) => (k, kind == 1) }
    }

    val g = LocalGraph.build(keys(nodeRows.iterator.map(_._3)), keys(edgeRows.iterator.map(_._4)),
      nodeRows, edgeRows)

    val nodes = view(spark, new StructType().add("id", LongType, false).add("ntype", StringType, false),
        g.nodeCols, g.numNodes, (g.ids, g.ntypes, g.ntypeOf)) {
      case ((ids, ntypes, ntypeOf), i) => Seq(ids(i), ntypes(ntypeOf(i)))
    }
    val edges = view(spark, new StructType().add("src", LongType, false).add("dst", LongType, false)
        .add("etype", StringType, false),
        g.edgeCols, g.numEdges, (g.ids, g.edgeSrc, g.edgeDst, g.etypes, g.etypeOf)) {
      case ((ids, src, dst, etypes, etypeOf), e) => Seq(ids(src(e)), ids(dst(e)), etypes(etypeOf(e)))
    }
    AttributedGraph(nodes, edges, Some(g))
  }

  /** A DataFrame of `rows` rows: row i is `fixed(table, i)`, the structural
    * cells of `base`, then row i of every column of `cols`. Rows are made
    * per partition from one broadcast of `(table, cols)`, in the partitions
    * `parallelize` makes of a list of `rows` rows.
    */
  private def view[T](spark: SparkSession, base: StructType, cols: AttrColumns, rows: Int, table: T)(
      fixed: (T, Int) => Seq[Any]): DataFrame = {
    val schema = cols.names.zip(cols.columns).foldLeft(base) { case (s, (k, c)) =>
      s.add(k, if (c.isInstanceOf[NumColumn]) DoubleType else StringType, nullable = true)
    }
    val sc = spark.sparkContext
    val shared = sc.broadcast((table, cols))
    val rdd = sc.parallelize(0 until rows, sc.defaultParallelism).mapPartitions { it =>
      val (t, c) = shared.value
      it.map(i => Row.fromSeq(fixed(t, i) ++ c.columns.map(_.get(i))))
    }
    spark.createDataFrame(rdd, schema)
  }
}
