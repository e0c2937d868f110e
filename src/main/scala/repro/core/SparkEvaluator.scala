package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Catalyst-based hypothesis evaluator.
  *
  * Relevant path extraction is expressed as a chain of DataFrame joins over
  * the nodes/edges tables — node position i is the nodes DF filtered by
  * modifier M_i, step j is the edges DF filtered by edge type r_j and joined
  * in the declared direction (or against it for r^-1 steps). Path instances
  * are simple (pairwise-distinct node ids), matching [[LocalEvaluator]].
  *
  * This is the Catalyst reference: its results are oracle-checked against
  * DuckDB SQL, and [[LocalEvaluator]], which computes H(G) for the
  * framework (`Framework.groundTruth`) as well as H(S), is checked against
  * it in the tests and in the benchmark's output checks.
  */
object SparkEvaluator {

  /** One row per relevant path instance: columns `n0_id .. nl_id` and `fval`
    * (the f_P value; null when the target attribute is absent).
    */
  def relevantPaths(g: AttributedGraph, h: Hypothesis): DataFrame = {
    val p = h.path
    val l = p.length

    def nodeDf(i: Int): DataFrame = {
      val base = g.nodes.filter(p.modifiers(i).column)
      val cols = Seq(col("id").as(s"n${i}_id")) ++ (h.target match {
        case NodeAttrTarget(pos, attr) if pos == i =>
          Seq(col(attr).cast("double").as("fval"))
        case _ => Nil
      })
      base.select(cols: _*)
    }

    var cur = nodeDf(0)
    for (j <- 0 until l) {
      val step = p.steps(j)
      val eCols = Seq(col("src").as(s"e${j}_src"), col("dst").as(s"e${j}_dst")) ++
        (h.target match {
          case EdgeAttrTarget(s, attr) if s == j =>
            Seq(col(attr).cast("double").as("fval"))
          case _ => Nil
        })
      val e = g.edges.filter(col("etype") === lit(step.etype)).select(eCols: _*)
      // A forward step walks src -> dst; a reversed step (r^-1) walks dst -> src.
      val (from, to) = if (step.reversed) (s"e${j}_dst", s"e${j}_src")
                       else (s"e${j}_src", s"e${j}_dst")
      cur = cur
        .join(e, col(s"n${j}_id") === col(from))
        .join(nodeDf(j + 1), col(to) === col(s"n${j + 1}_id"))
    }

    val distinct = (for { a <- 0 to l; b <- (a + 1) to l }
      yield col(s"n${a}_id") =!= col(s"n${b}_id")).reduceOption(_ && _)
    val simple = distinct.fold(cur)(cur.filter)

    val idCols = (0 to l).map(i => col(s"n${i}_id"))
    val fCol = h.target match {
      case UnitTarget => lit(1.0).as("fval")
      case _          => col("fval")
    }
    simple.select(idCols :+ fCol: _*)
  }

  /** Full evaluation: extraction + aggregation + decision. The per-path f
    * values stay on the cluster, so `values` is empty.
    */
  def evaluate(g: AttributedGraph, h: Hypothesis): EvalResult = {
    val paths = relevantPaths(g, h).cache()
    try {
      val row = paths.agg(
        count(lit(1)).as("n_paths"),
        count(col("fval")).as("n_vals"),
        avg("fval").as("avg"),
        sum("fval").as("sum"),
        min("fval").as("min"),
        max("fval").as("max")).collect()(0)
      val nPaths = row.getLong(0)
      val nVals  = row.getLong(1)
      def d(i: Int): Option[Double] =
        if (row.isNullAt(i)) None else Attr.num(row.get(i))
      val est: Option[Double] = h.agg match {
        case Agg.Count           => Some(nPaths.toDouble)
        case _ if nVals == 0     => None
        case Agg.Avg             => d(2)
        case Agg.Sum             => d(3)
        case Agg.Min             => d(4)
        case Agg.Max             => d(5)
      }
      EvalResult(est, nPaths, est.map(h.decide), Values.empty)
    } finally {
      paths.unpersist()
    }
  }
}
