package perfbench

import java.io.File
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** Command line of the benchmark (normally started by perfbench/run.py):
  *
  *   perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  *
  * Prints a human-readable summary and, as its last line, the result object.
  * Exits 2 on bad arguments and 1 if the run could not complete.
  */
object Main {

  /** Spark local mode uses at most 4 threads, and never more than the cores. */
  val sparkThreads: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = { System.err.println(s"perfbench: $msg"); sys.exit(2) }
    val known = Workload.all.map(_.name).mkString(", ")
    val w = opts.get("workload").flatMap(Workload.byName).getOrElse(fail(s"--workload must be one of $known"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(fail("--seed must be an integer"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(fail("--seconds must be positive"))
    val trace = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t   => fail(s"--trace must be 0 or 1, not $t")
    }
    val out = new File(opts.getOrElse("out", ".bench_build/perfbench")).getAbsoluteFile

    val threads = sparkThreads
    val t0 = System.nanoTime()
    val spark = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", threads.toLong)
      .config("spark.local.dir", new File(out, "spark-tmp").getPath)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sessionMs = (System.nanoTime() - t0) / 1e6

    val code =
      try {
        val report = Bench.run(spark, Settings(w, seed, seconds, trace, out), sessionMs)
        report.notes.foreach(println)
        (report.endToEnd ++ report.perLayer).foreach(m => println(f"  ${m.name}%-40s ${m.value}%14.4f ${m.unit}"))
        println(report.resultLine(trace))
        0
      } catch {
        case NonFatal(e) =>
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }
}
