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
  */
final case class AttributedGraph(nodes: DataFrame, edges: DataFrame) {
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
  /** Convenience constructor from in-memory tuples (tests / tiny graphs).
    * `nodeRows` = (id, ntype, attrs); `edgeRows` = (src, dst, etype, attrs).
    * Each distinct attribute key becomes one nullable column, in key order.
    * A key whose values are all numeric (see [[Attr.num]]) becomes a double
    * column, any other key a string column of `String.valueOf` its values.
    * A key with both numeric and non-numeric values is rejected. A null value
    * counts as absent; an absent value is null.
    */
  def fromTuples(
      spark: SparkSession,
      nodeRows: Seq[(Long, String, Map[String, Any])],
      edgeRows: Seq[(Long, Long, String, Map[String, Any])]): AttributedGraph = {
    // One table: the structural cells of each row, then its attribute cells.
    def table(base: StructType, rows: Seq[(Seq[Any], Map[String, Any])]): DataFrame = {
      // Per key, the kinds of its values: bit 0 numeric, bit 1 not numeric.
      val kinds = mutable.TreeMap.empty[String, Int]
      for ((_, attrs) <- rows; (k, v) <- attrs if v != null)
        kinds(k) = kinds.getOrElse(k, 0) | (if (Attr.num(v).isDefined) 1 else 2)
      for ((k, kind) <- kinds)
        require(kind != 3, s"attribute key \"$k\" has both numeric and non-numeric values")
      val columns = kinds.toSeq
      val schema = columns.foldLeft(base) { case (s, (k, kind)) =>
        s.add(k, if (kind == 1) DoubleType else StringType, nullable = true)
      }
      val cells = rows.map { case (fixed, attrs) =>
        Row.fromSeq(fixed ++ columns.map { case (k, kind) =>
          attrs.get(k).filter(_ != null)
            .map(v => if (kind == 1) Double.box(Attr.num(v).get) else String.valueOf(v)).orNull
        })
      }
      spark.createDataFrame(spark.sparkContext.parallelize(cells.toList), schema)
    }
    AttributedGraph(
      table(new StructType().add("id", LongType, false).add("ntype", StringType, false),
        nodeRows.map { case (id, t, m) => (Seq(id, t), m) }),
      table(new StructType().add("src", LongType, false).add("dst", LongType, false)
          .add("etype", StringType, false),
        edgeRows.map { case (src, dst, t, m) => (Seq(src, dst, t), m) }))
  }
}
