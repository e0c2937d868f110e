package repro.core

import org.apache.spark.{Partition, SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructType}
import scala.reflect.ClassTag

/** An attributed graph (paper Def. 1) backed by two DataFrames.
  *
  * `nodes` must have columns `id: long`, `ntype: string`, plus one flat
  * column per attribute (nullable for node types that lack it).
  * `edges` must have columns `src: long`, `dst: long`, `etype: string`,
  * plus flat attribute columns. Edges are directed; the inverse relation
  * r^-1 is available implicitly (walkers may traverse edges backwards and
  * path steps may be declared `reversed`).
  *
  * A graph made by [[AttributedGraph.fromLocal]], as the generators make
  * theirs, carries its driver-side [[LocalGraph]] in `local`, and its
  * DataFrames are views of that graph's columns; one made from DataFrames
  * alone carries none, and `LocalGraph.fromAttributed` collects it.
  */
final case class AttributedGraph(nodes: DataFrame, edges: DataFrame,
    private[core] val local: Option[LocalGraph] = None) {
  require(Seq("id", "ntype").forall(nodes.columns.contains(_)),
    s"nodes needs id/ntype columns, got ${nodes.columns.mkString(",")}")
  require(Seq("src", "dst", "etype").forall(edges.columns.contains(_)),
    s"edges needs src/dst/etype columns, got ${edges.columns.mkString(",")}")

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
  /** The graph `g`, which the result carries, with DataFrames that are
    * views of its columns: each reads them through one broadcast, made when
    * a job first reads the view, row i of partition p where `parallelize`
    * would put it. Each attribute column is one nullable double or string
    * column, in key order; an absent value is null.
    */
  def fromLocal(spark: SparkSession, g: LocalGraph): AttributedGraph = {
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
    * cells of `base`, then row i of every column of `cols`, in the
    * partitions `parallelize` makes of a list of `rows` rows.
    */
  private def view[T](spark: SparkSession, base: StructType, cols: AttrColumns, rows: Int, table: T)(
      fixed: (T, Int) => Seq[Any]): DataFrame = {
    val schema = cols.names.zip(cols.columns).foldLeft(base) { case (s, (k, c)) =>
      s.add(k, if (c.isInstanceOf[NumColumn]) DoubleType else StringType, nullable = true)
    }
    spark.createDataFrame(new ViewRDD[(T, AttrColumns)](spark.sparkContext, rows, (table, cols), {
      case ((t, c), i) => Row.fromSeq(fixed(t, i) ++ c.columns.map(_.get(i)))
    }), schema)
  }
}

/** Rows 0 to `rows`-1, row i made by `row(value, i)`, in the partitions
  * `parallelize` makes of a list of `rows` rows. `value` is broadcast once,
  * when a job first plans the partitions, so the driver keeps no rows, and
  * a view that nothing reads broadcasts nothing: its graph is freed as soon
  * as it is dropped, not when Spark's cleaner removes the broadcast.
  */
private final class ViewRDD[T: ClassTag](sc: SparkContext, rows: Int, @transient value: T, row: (T, Int) => Row)
    extends RDD[Row](sc, Nil) {
  private var shared: Broadcast[T] = _

  override protected def getPartitions: Array[Partition] = {
    shared = sparkContext.broadcast(value)
    val n = sparkContext.defaultParallelism
    Array.tabulate[Partition](n)(p => ViewPartition(p, (p.toLong * rows / n).toInt, ((p + 1L) * rows / n).toInt))
  }

  override def compute(split: Partition, context: TaskContext): Iterator[Row] = {
    val p = split.asInstanceOf[ViewPartition]
    val v = shared.value
    Iterator.range(p.from, p.until).map(row(v, _))
  }
}

private final case class ViewPartition(index: Int, from: Int, until: Int) extends Partition
