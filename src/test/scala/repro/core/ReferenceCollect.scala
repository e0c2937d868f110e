package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DoubleType, StringType, StructType}

/** The reference for the graphs the program builds: collects a graph made
  * from DataFrames alone into a [[LocalGraph]], through the same
  * [[LocalGraph.Builder]], in the DataFrames' row order. Attribute columns
  * are all columns other than the structural ones, and must be double or
  * string columns; a null cell is an absent attribute. Tests compare the
  * graph a generator or `TestGraphs.fromTuples` carries with the one this
  * collects back from its DataFrames.
  */
object ReferenceCollect {

  def apply(g: AttributedGraph): LocalGraph = {
    val (ns, es) = (g.nodes.schema, g.edges.schema)
    val nodeRows = g.nodes.collect()
    val ids = nodeRows.map(_.getLong(ns.fieldIndex("id")))
    val b = new LocalGraph.Builder(ids)
    val nodeCells = cells(b.nodes, ns, Set("id", "ntype"))
    val t = ns.fieldIndex("ntype")
    for (i <- nodeRows.indices) {
      b.nodes.setType(i, b.nodes.typeCode(nodeRows(i).getString(t)))
      nodeCells(i, nodeRows(i))
    }
    val edgeCells = cells(b.edges, es, Set("src", "dst", "etype"))
    val (s, d, et) = (es.fieldIndex("src"), es.fieldIndex("dst"), es.fieldIndex("etype"))
    val idToIdx = ids.zipWithIndex.toMap.withDefaultValue(-1)
    for (r <- g.edges.collect()) {
      val (u, v) = (idToIdx(r.getLong(s)), idToIdx(r.getLong(d)))
      require(u >= 0 && v >= 0, s"edge references unknown node: ${r.getLong(s)} -> ${r.getLong(d)}")
      edgeCells(b.addEdge(u, v, b.edges.typeCode(r.getString(et))), r)
    }
    b.result()
  }

  /** Writes row i's attribute cells into the columns of `table`: every
    * field of `schema` but the `structural` ones, by index. A null cell is
    * left unwritten.
    */
  private def cells(table: TableBuilder, schema: StructType, structural: Set[String]): (Int, Row) => Unit = {
    val writers = schema.fields.indices.filterNot(j => structural(schema(j).name)).map[(Int, Row) => Unit] { j =>
      val f = schema(j)
      f.dataType match {
        case DoubleType => val c = table.num(f.name); (i, r) => if (!r.isNullAt(j)) c(i) = r.getDouble(j)
        case StringType => val c = table.str(f.name); (i, r) => if (!r.isNullAt(j)) c(i) = r.getString(j)
        case other => throw new IllegalArgumentException(
          s"attribute column \"${f.name}\" has type ${other.simpleString}; only double and string are supported")
      }
    }
    (i, r) => writers.foreach(_(i, r))
  }
}
