package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Comparison operators used both in attribute predicates (modifiers) and in
  * the hypothesis predicate `P_c^o`. The paper's four (§2.2, o ∈ {=, <>, >,
  * <}) are `Eq`, `Ne`, `Gt` and `Lt`; `Ge` and `Le` are extensions that the
  * catalog does not use.
  */
sealed trait CmpOp {
  /** Evaluate the comparison on already-extracted values. Numeric pairs are
    * compared as doubles; everything else falls back to string comparison.
    */
  def eval(l: Any, r: Any): Boolean = {
    (Attr.num(l), Attr.num(r)) match {
      case (Some(a), Some(b)) => evalD(a, b)
      case _                  => evalS(String.valueOf(l), String.valueOf(r))
    }
  }
  /** The comparison of two numbers, and of two strings. */
  def evalD(a: Double, b: Double): Boolean
  def evalS(a: String, b: String): Boolean
  /** Render as a Spark SQL `Column` predicate. */
  def column(l: Column, r: Column): Column
}

object CmpOp {
  case object Eq extends CmpOp {
    def evalD(a: Double, b: Double) = math.abs(a - b) <= 1e-9
    def evalS(a: String, b: String) = a == b
    def column(l: Column, r: Column): Column  = l === r
  }
  case object Ne extends CmpOp {
    def evalD(a: Double, b: Double) = math.abs(a - b) > 1e-9
    def evalS(a: String, b: String) = a != b
    def column(l: Column, r: Column): Column  = l =!= r
  }
  case object Gt extends CmpOp {
    def evalD(a: Double, b: Double) = a > b
    def evalS(a: String, b: String) = a > b
    def column(l: Column, r: Column): Column  = l > r
  }
  case object Lt extends CmpOp {
    def evalD(a: Double, b: Double) = a < b
    def evalS(a: String, b: String) = a < b
    def column(l: Column, r: Column): Column  = l < r
  }
  case object Ge extends CmpOp {
    def evalD(a: Double, b: Double) = a >= b
    def evalS(a: String, b: String) = a >= b
    def column(l: Column, r: Column): Column  = l >= r
  }
  case object Le extends CmpOp {
    def evalD(a: Double, b: Double) = a <= b
    def evalS(a: String, b: String) = a <= b
    def column(l: Column, r: Column): Column  = l <= r
  }
}

/** Helpers for dynamically-typed attribute values collected off DataFrames. */
object Attr {
  /** Numeric view of an attribute value, if it has one. */
  def num(v: Any): Option[Double] = v match {
    case null                     => None
    case d: Double                => Some(d)
    case f: Float                 => Some(f.toDouble)
    case l: Long                  => Some(l.toDouble)
    case i: Int                   => Some(i.toDouble)
    case s: Short                 => Some(s.toDouble)
    case b: Byte                  => Some(b.toDouble)
    case b: java.math.BigDecimal  => Some(b.doubleValue)
    case b: BigDecimal            => Some(b.doubleValue)
    case _                        => None
  }
}

/** A single attribute predicate, e.g. `citation > 100` or `venue_type = "conference"`. */
final case class AttrPred(attr: String, op: CmpOp, value: Any) {
  /** True iff the predicate holds on `attrs` (absent/null attribute => false). */
  def matches(attrs: Map[String, Any]): Boolean =
    attrs.get(attr) match {
      case Some(v) if v != null => op.eval(v, value)
      case _                    => false
    }
  /** Catalyst rendering over a node/edge DataFrame with flat attribute columns. */
  def column: Column = op.column(col(attr), lit(value))
}

/** A node modifier `M_t`: a node type plus zero or more attribute predicates
  * (paper §2.1, "attributed path ... each node has a list of attributes,
  * referred to as a modifier").
  */
final case class Modifier(ntype: String, preds: Seq[AttrPred] = Nil) {
  def matches(nodeType: String, attrs: Map[String, Any]): Boolean =
    nodeType == ntype && preds.forall(_.matches(attrs))
  /** Catalyst rendering over the nodes DataFrame (`ntype` column + attrs). */
  def column: Column =
    preds.foldLeft(col("ntype") === lit(ntype))((acc, p) => acc && p.column)
}

/** One hop of a path: an edge type, possibly traversed against its stored
  * direction (`reversed = true` encodes the paper's inverse relation r^-1).
  */
final case class PathStep(etype: String, reversed: Boolean = false)

/** A typed, attributed path `t_1 -r_1-> ... -r_l-> t_{l+1}` with a modifier at
  * every node position. `steps.length == modifiers.length - 1`; length 0 is a
  * node hypothesis, length 1 an edge hypothesis (paper Def. 2/3).
  */
final case class PathSpec(modifiers: IndexedSeq[Modifier], steps: IndexedSeq[PathStep]) {
  require(modifiers.nonEmpty && steps.length == modifiers.length - 1,
    s"need one modifier per node position: ${modifiers.length} modifiers, ${steps.length} steps")
  /** Path length l (number of edges). */
  def length: Int = steps.length
}

/** What `f_P` reads: a node attribute at a path position, or an edge
  * attribute at a step index, or nothing (pure path counting).
  */
sealed trait Target
/** `f_P` = attribute `attr` of the node at `position` (0-based) on the path. */
final case class NodeAttrTarget(position: Int, attr: String) extends Target
/** `f_P` = attribute `attr` of the edge used at step `step` (0-based). */
final case class EdgeAttrTarget(step: Int, attr: String) extends Target
/** `f_P` = 1 for every relevant path (used with [[Agg.Count]]). */
case object UnitTarget extends Target

/** Aggregation function `agg` of the hypothesis. */
sealed trait Agg
object Agg {
  case object Avg   extends Agg
  case object Sum   extends Agg
  case object Min   extends Agg
  case object Max   extends Agg
  case object Count extends Agg
}

/** A node/edge/path hypothesis `P_c^o(agg(f_P | M_{t_i} ∀ t_i on P))`
  * (paper Def. 3). `kind` is derived from the path length.
  */
final case class Hypothesis(
    name: String,
    path: PathSpec,
    target: Target,
    agg: Agg,
    op: CmpOp,
    c: Double) {

  target match {
    case NodeAttrTarget(p, _) =>
      require(p >= 0 && p < path.modifiers.length, s"target position $p out of range")
    case EdgeAttrTarget(s, _) =>
      require(s >= 0 && s < path.steps.length, s"target step $s out of range")
    case UnitTarget =>
      require(agg == Agg.Count, "UnitTarget only makes sense with Count")
  }

  /** "node" (l=0), "edge" (l=1) or "path" (l>=2), per the paper's taxonomy. */
  def kind: String = path.length match {
    case 0 => "node"
    case 1 => "edge"
    case _ => "path"
  }

  /** The hypothesis decision given an aggregate value. */
  def decide(aggregate: Double): Boolean = op.eval(aggregate, c)
}
