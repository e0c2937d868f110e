package perfbench

import java.io.File

import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.jackson.JsonMethods
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own checks: the tail-percentile rule, what the seed
  * reaches, determinism, and that every printed metric is declared in
  * BENCHMARK.json. Workloads run here on graphs shrunk 20x.
  */
class BenchSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder()
    .master("local[2]")
    .appName("perfbench-test")
    .config("spark.sql.shuffle.partitions", 2L)
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private val out = new File("target/bench-test-out")

  private def run(workload: String, seed: Long, trace: Boolean): Report =
    Bench.run(spark, Settings(Workload.byName(workload).get, seed, 0.01, trace, out, shrink = 0.05), 0.0)

  // ------------------------------------------------------- op_ms_tail rule

  test("tail percentile leaves at least 10 samples beyond it, and the next one would not") {
    for (cap <- Stat.ladder; n <- 1 to 3000) {
      val allowed = Stat.ladder.filter(_ <= cap)
      Stat.tailPercentile(n, cap) match {
        case Some(p) =>
          assert(n - Stat.rank(p, n) >= 10, s"n=$n p=$p")
          allowed.find(_ > p).foreach(q => assert(n - Stat.rank(q, n) < 10, s"n=$n p=$p but $q qualifies"))
        case None =>
          assert(n - Stat.rank(allowed.head, n) < 10, s"n=$n has a qualifying percentile")
      }
    }
  }

  test("tail percentile examples") {
    assert(Stat.tailPercentile(19).isEmpty)
    assert(Stat.tailPercentile(20).contains(50.0))
    assert(Stat.tailPercentile(100).contains(90.0))
    assert(Stat.tailPercentile(199).contains(90.0))
    assert(Stat.tailPercentile(200).contains(95.0))
    assert(Stat.tailPercentile(1000).contains(99.0))
    assert(Stat.tailPercentile(1000, cap = 95.0).contains(95.0))
    assert(Stat.tailPercentile(10000).contains(99.9))
  }

  test("tail reports its value, percentile and samples beyond") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stat.tail(xs) == Stat.Tail(90.0, "p90", 10))
    assert(Stat.tail(xs.take(5)) == Stat.Tail(5.0, "max", 0))
  }

  // ------------------------------------------------ seeds and determinism

  test("the seed changes the sampler seeds but not the graphs") {
    val a = run("grid", 1, trace = false)
    val b = run("grid", 2, trace = false)
    assert(a.graphDigest == b.graphDigest)
    assert(a.digest != b.digest)
    assert(Workload.opSeed(1, 0, 0) != Workload.opSeed(2, 0, 0))
    assert(Workload.opSeed(1, 0, 0) != Workload.opSeed(1, 1, 0))
    assert(Workload.opSeed(1, 0, 0) != Workload.opSeed(1, 0, 1))
  }

  test("two runs with the same seed give the same digest") {
    for (w <- Workload.all.map(_.name)) {
      val a = run(w, 7, trace = false)
      val b = run(w, 7, trace = false)
      assert(a.digest == b.digest, w)
      assert(a.correct && b.correct, (a.failures ++ b.failures).mkString("; "))
    }
  }

  // --------------------------------------------- metrics vs BENCHMARK.json

  private lazy val declared: JValue = {
    val f = Seq(new File("../BENCHMARK.json"), new File("BENCHMARK.json")).find(_.exists).get
    JsonMethods.parse(scala.io.Source.fromFile(f, "UTF-8").mkString)
  }

  private def names(section: String): Seq[(String, String)] =
    (declared \ section).children.map { m =>
      ((m \ "name").asInstanceOf[JString].s, (m \ "unit").asInstanceOf[JString].s)
    }

  test("the workloads are the ones BENCHMARK.json declares") {
    val ws = (declared \ "workloads").children.map(w => (w \ "name").asInstanceOf[JString].s)
    assert(ws == Workload.all.map(_.name))
  }

  test("every metric the benchmark prints is named in BENCHMARK.json with its unit") {
    for (w <- Workload.all.map(_.name)) {
      val r = run(w, 3, trace = true)
      assert(r.endToEnd.map(m => (m.name, m.unit)) == names("end_to_end"), w)
      assert(r.perLayer.map(m => (m.name, m.unit)) == names("per_layer"), w)
      val line = JsonMethods.parse(r.resultLine(trace = true))
      assert((line \ "metrics").asInstanceOf[JObject].obj.map(_._1) == names("per_layer").map(_._1))
      assert(JsonMethods.parse(r.resultLine(trace = false)) \ "metrics" != JNothing)
    }
  }
}
