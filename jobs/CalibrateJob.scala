package repro.jobs

import repro.core._
import repro.eval.Tables
import repro.hypotheses.Catalog

/** Prints the ground-truth aggregate, relevant-instance count, and decision
  * for every catalog hypothesis on the bench-scale synthetic datasets.
  * Used once to calibrate the constants c in [[Catalog]] (DESIGN.md §6) and
  * kept as a transparency tool.
  */
object CalibrateJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("calibrate")
    for ((name, ag) <- Tables.datasets(spark, Tables.config())) {
      val lg = LocalGraph.fromAttributed(ag)
      println(f"== $name: ${lg.numNodes}%,d nodes ${lg.numEdges}%,d edges")
      val hs = Catalog.all(name)
      val extra = if (name == "DBLP") Catalog.dblpLongPaths else Nil
      for (h <- hs.all ++ extra) {
        val t0 = System.nanoTime()
        val r = LocalEvaluator.evaluate(lg, h)
        val ms = (System.nanoTime() - t0) / 1e6
        println(f"  ${h.name}%-8s agg=${r.estimate.map(v => f"$v%.4f").getOrElse("n/a")}%-10s " +
          f"relevant=${r.nRelevant}%,10d decision=${r.decision.getOrElse("n/a")}%-5s c=${h.c} (${ms}%.0f ms)")
      }
    }
    spark.stop()
  }
}
