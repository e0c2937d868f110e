package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestGraphs}

/** The DataFrame reference for node degrees, which the CSR mirror's degrees
  * and the generators' no-isolated-node property are checked against.
  */
object Degrees {
  /** Total (in+out) degree per node id; nodes with no edges are kept with 0. */
  def of(g: AttributedGraph): DataFrame = {
    val ends = g.edges.select(col("src") as "id")
      .unionAll(g.edges.select(col("dst") as "id"))
    g.nodes.select("id").join(ends.groupBy("id").agg(count(lit(1)) as "degree"), Seq("id"), "left")
      .select(col("id"), coalesce(col("degree"), lit(0L)) as "degree")
  }
}

class DegreesSpec extends SparkSpec {

  private lazy val g = TestGraphs.tiny

  test("degrees counts in+out edges") {
    val deg = Degrees.of(g).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(deg(11L) == 5) // p1: 2 authorship + venue + fos + cites
    assert(deg(12L) == 5) // p2: 2 authorship + venue + fos + cited
    assert(deg(1L) == 2)  // a1 on p1 and p3
    assert(deg(21L) == 2) // v1 hosts p1, p3
  }
  test("degrees keeps all nodes") {
    assert(Degrees.of(g).count() == 10)
  }
}
