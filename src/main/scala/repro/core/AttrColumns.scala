package repro.core

import scala.collection.mutable

/** One attribute column of a node or edge table, over its rows. */
sealed trait AttrColumn extends Serializable {
  /** Row i's value as a DataFrame holds it (`java.lang.Double` or `String`),
    * or null where the row lacks the attribute.
    */
  def get(i: Int): Any
  /** The rows whose value v gives `op.eval(v, value)`, without boxing v; a
    * row without the attribute gives false.
    */
  def test(op: CmpOp, value: Any): Int => Boolean
}

/** A double column: row i holds `values(i)` where `present` has bit i. */
final class NumColumn(val values: Array[Double], val present: java.util.BitSet) extends AttrColumn {
  def get(i: Int): Any = if (present.get(i)) Double.box(values(i)) else null
  def test(op: CmpOp, value: Any): Int => Boolean = Attr.num(value) match {
    case Some(c) => i => present.get(i) && op.evalD(values(i), c)
    case None    => val s = String.valueOf(value); i => present.get(i) && op.evalS(String.valueOf(values(i)), s)
  }
}

/** A dictionary-coded string column: row i holds `dict(codes(i))`, or
  * nothing where the code is -1.
  */
final class StrColumn(val codes: Array[Int], val dict: Array[String]) extends AttrColumn {
  def get(i: Int): Any = if (codes(i) < 0) null else dict(codes(i))
  def test(op: CmpOp, value: Any): Int => Boolean = {
    val s = String.valueOf(value)
    val ok = dict.map(op.evalS(_, s))
    i => codes(i) >= 0 && ok(codes(i))
  }
}

/** The attribute columns of a node or edge table, by name. */
final class AttrColumns(val names: Array[String], val columns: Array[AttrColumn]) extends Serializable {
  def apply(name: String): Option[AttrColumn] = names.indexOf(name) match {
    case -1 => None
    case k  => Some(columns(k))
  }

  /** Row i's attributes by name, without the ones it lacks: the map a row
    * of the DataFrame gives when its null cells are dropped.
    */
  def row(i: Int): Map[String, Any] = {
    val m = Map.newBuilder[String, Any]
    var k = 0
    while (k < names.length) { val v = columns(k).get(i); if (v != null) m += names(k) -> v; k += 1 }
    m.result()
  }

  /** The rows that satisfy `p` (see [[AttrPred.matches]]). */
  def test(p: AttrPred): Int => Boolean = apply(p.attr).fold[Int => Boolean](_ => false)(_.test(p.op, p.value))
}

object AttrColumns {
  /** The columns `keys` (name, numeric?) of these rows, in that order. A
    * numeric column takes each value as [[Attr.num]] reads it, a string
    * column as `String.valueOf`; a row without the key, or with a null
    * value, lacks the attribute.
    */
  def apply(keys: Seq[(String, Boolean)], rows: Array[Map[String, Any]]): AttrColumns =
    new AttrColumns(keys.map(_._1).toArray, keys.map[AttrColumn] { case (k, numeric) =>
      val cells = rows.map(_.getOrElse(k, null))
      if (numeric) {
        val present = new java.util.BitSet(cells.length)
        cells.indices.foreach(i => if (cells(i) != null) present.set(i))
        new NumColumn(cells.map(v => if (v == null) 0.0 else Attr.num(v).get), present)
      } else {
        val (dict, codes) = intern(cells.iterator.map(v => if (v == null) null else String.valueOf(v)))
        new StrColumn(codes, dict)
      }
    }.toArray)

  /** The distinct non-null strings in order of first use, and the index in
    * that table of each string (-1 for null).
    */
  def intern(xs: Iterator[String]): (Array[String], Array[Int]) = {
    val table = mutable.LinkedHashMap.empty[String, Int]
    val idx = xs.map(x => if (x == null) -1 else table.getOrElseUpdate(x, table.size)).toArray
    (table.keys.toArray, idx)
  }
}
