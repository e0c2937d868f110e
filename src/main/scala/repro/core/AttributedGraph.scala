package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructType}

/** An attributed graph (paper Def. 1) seen as two DataFrames.
  *
  * `nodes` must have columns `id: long`, `ntype: string`, plus one flat
  * column per attribute (nullable for node types that lack it).
  * `edges` must have columns `src: long`, `dst: long`, `etype: string`,
  * plus flat attribute columns. Edges are directed; the inverse relation
  * r^-1 is available implicitly (walkers may traverse edges backwards and
  * path steps may be declared `reversed`).
  *
  * A graph made by [[AttributedGraph.fromLocal]], as the generators make
  * theirs, carries its driver-side [[LocalGraph]] in `local` and makes each
  * DataFrame, a view of that graph's columns, when it is first read; one
  * made from DataFrames alone carries none.
  */
final class AttributedGraph private (makeNodes: => DataFrame, makeEdges: => DataFrame,
    private[core] val local: Option[LocalGraph]) {
  lazy val nodes: DataFrame = makeNodes
  lazy val edges: DataFrame = makeEdges

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
  def apply(nodes: DataFrame, edges: DataFrame): AttributedGraph = {
    require(Seq("id", "ntype").forall(nodes.columns.contains(_)),
      s"nodes needs id/ntype columns, got ${nodes.columns.mkString(",")}")
    require(Seq("src", "dst", "etype").forall(edges.columns.contains(_)),
      s"edges needs src/dst/etype columns, got ${edges.columns.mkString(",")}")
    new AttributedGraph(nodes, edges, None)
  }

  /** The graph `g`, which the result carries, with DataFrames that are
    * views of its columns: each is made on its first read, and reads them
    * through one broadcast, row i in the partition where `parallelize` puts
    * it. Each attribute column is one nullable double or string column, in
    * key order; an absent value is null.
    */
  def fromLocal(spark: SparkSession, g: LocalGraph): AttributedGraph = new AttributedGraph(
    view(spark, new StructType().add("id", LongType, false).add("ntype", StringType, false),
        g.nodeCols, g.numNodes, (g.ids, g.ntypes, g.ntypeOf)) {
      case ((ids, ntypes, ntypeOf), i) => Seq(ids(i), ntypes(ntypeOf(i)))
    },
    view(spark, new StructType().add("src", LongType, false).add("dst", LongType, false)
        .add("etype", StringType, false),
        g.edgeCols, g.numEdges, (g.ids, g.edgeSrc, g.edgeDst, g.etypes, g.etypeOf)) {
      case ((ids, src, dst, etypes, etypeOf), e) => Seq(ids(src(e)), ids(dst(e)), etypes(etypeOf(e)))
    },
    Some(g))

  /** A DataFrame of `rows` rows: row i is `fixed(table, i)`, the structural
    * cells of `base`, then row i of every column of `cols`.
    */
  private def view[T](spark: SparkSession, base: StructType, cols: AttrColumns, rows: Int, table: T)(
      fixed: (T, Int) => Seq[Any]): DataFrame = {
    val schema = cols.names.zip(cols.columns).foldLeft(base) { case (s, (k, c)) =>
      s.add(k, if (c.isInstanceOf[NumColumn]) DoubleType else StringType, nullable = true)
    }
    val shared = spark.sparkContext.broadcast((table, cols))
    spark.createDataFrame(spark.sparkContext.parallelize(0 until rows).map { i =>
      val (t, c) = shared.value
      Row.fromSeq(fixed(t, i) ++ c.columns.map(_.get(i)))
    }, schema)
  }
}
