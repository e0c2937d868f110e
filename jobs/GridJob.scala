package repro.jobs

import repro.eval.Tables

/** Reproduces paper Tables 3 and 4 (accuracy and execution time of 12
  * samplers) from one run of the grid.
  */
object GridJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("grid")
    val grid = Tables.grid(spark, Tables.config(), progress = s => println(s"[grid] $s"))
    println(Tables.renderTable3(grid))
    println(Tables.renderTable4(grid))
    spark.stop()
  }
}
