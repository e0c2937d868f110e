package repro.core

import scala.collection.mutable
import scala.reflect.ClassTag

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

/** An int array that grows as it is written; a cell never written is -1. */
private[core] final class Ints {
  private var a = Array.fill(16)(-1)

  def apply(i: Int): Int = a(i)

  def update(i: Int, v: Int): Unit = {
    if (i >= a.length) a = resized(math.max(i + 1, 2 * a.length))
    a(i) = v
  }

  /** Cells 0 to n-1; none past them may be written. */
  def result(n: Int): Array[Int] = {
    var i = n
    while (i < a.length && a(i) < 0) i += 1
    require(i >= a.length, s"row $i written past $n rows")
    resized(n)
  }

  /** The first `n` cells, padded with -1. */
  private def resized(n: Int): Array[Int] = {
    val b = java.util.Arrays.copyOf(a, n)
    if (n > a.length) java.util.Arrays.fill(b, a.length, n, -1)
    b
  }
}

/** A column as it is filled: rows are written in any order, and a row
  * never written lacks the attribute.
  */
sealed trait ColumnBuilder {
  /** The column of rows 0 to `rows`-1; no row past them may be written. */
  def result(rows: Int): AttrColumn
}

final class NumColumnBuilder private[core] () extends ColumnBuilder {
  private var values = new Array[Double](16)
  private val present = new java.util.BitSet

  def update(i: Int, v: Double): Unit = {
    if (i >= values.length) values = java.util.Arrays.copyOf(values, math.max(i + 1, 2 * values.length))
    values(i) = v
    present.set(i)
  }

  def result(rows: Int): AttrColumn = {
    require(present.length <= rows, s"row ${present.length - 1} written past $rows rows")
    new NumColumn(java.util.Arrays.copyOf(values, rows), java.util.BitSet.valueOf(present.toLongArray))
  }
}

/** Strings are coded in order of first use. */
final class StrColumnBuilder private[core] () extends ColumnBuilder {
  private val codes = new Ints
  private val dict = new Interner

  def update(i: Int, s: String): Unit = codes(i) = dict(s)

  def result(rows: Int): AttrColumn = new StrColumn(codes.result(rows), dict.table)
}

/** Codes strings in order of first use. */
private[core] final class Interner {
  private val index = new java.util.HashMap[String, Integer]
  private val strings = mutable.ArrayBuffer.empty[String]

  def apply(s: String): Int = {
    val c = index.get(s)
    if (c != null) c.intValue else { index.put(s, strings.length); strings += s; strings.length - 1 }
  }

  /** The strings coded so far, by code. */
  def table: Array[String] = strings.toArray
}

/** A node or edge table as it is filled: each row's type, and the attribute
  * columns by name. Rows are written in any order.
  */
final class TableBuilder private[core] () {
  private val types = new Interner
  private val typeOf = new Ints
  private val columns = mutable.HashMap.empty[String, ColumnBuilder]

  /** The code of type `t`, for [[setType]]. Types are coded in the order of
    * their first `typeCode`, which is the order of the type table: call it
    * in the order of first use by row.
    */
  def typeCode(t: String): Int = types(t)

  def setType(i: Int, code: Int): Unit = typeOf(i) = code

  /** The double column `key`, made empty on first use. */
  def num(key: String): NumColumnBuilder = column(key, new NumColumnBuilder)

  /** The string column `key`, made empty on first use. */
  def str(key: String): StrColumnBuilder = column(key, new StrColumnBuilder)

  private def column[C <: ColumnBuilder: ClassTag](key: String, make: => C): C =
    columns.getOrElseUpdate(key, make) match {
      case c: C => c
      case _    => throw new IllegalArgumentException(s"attribute key \"$key\" has both numeric and non-numeric values")
    }

  /** Rows 0 to `rows`-1, each of which must have a type: the type table,
    * each row's index in it, and the columns in key order.
    */
  def result(rows: Int): (Array[String], Array[Int], AttrColumns) = {
    val of = typeOf.result(rows)
    var i = 0
    while (i < rows && of(i) >= 0) i += 1
    require(i == rows, s"row $i has no type")
    val keys = columns.keys.toArray.sorted
    (types.table, of, new AttrColumns(keys, keys.map(columns(_).result(rows))))
  }
}
