package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.util.concurrent.Executors
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.Random
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.json4s.{JObject, JValue}
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}

import repro.core._
import repro.eval.Tables
import repro.hypotheses.Catalog
import repro.sampling.PhaseGraphX

final case class Metric(name: String, value: Double, unit: String) {
  require(!value.isNaN && !value.isInfinite, s"metric $name = $value is not a JSON number")
}

object Metric {
  /** `{"name": {"value": v, "unit": "u"}, ...}` */
  def json(ms: Seq[Metric]): JObject =
    JObject(ms.map(m => m.name -> (("value" -> m.value) ~ ("unit" -> m.unit))): _*)
}

/** How one run is made. `shrink` multiplies every dataset scale; the
  * benchmark's own tests use it to run the workloads on tiny graphs.
  */
final case class Settings(
    workload: Workload,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    outDir: File,
    shrink: Double = 1.0)

/** Everything a run reports. `endToEnd` goes into the result line of an
  * untraced run, `perLayer` into that of a traced run.
  */
final case class Report(
    records: Seq[Bench.OpRecord],
    attempted: Int,
    failures: Seq[String],
    endToEnd: Seq[Metric],
    perLayer: Seq[Metric],
    digest: String,
    graphDigest: String,
    notes: Seq[String]) {
  def failed: Int = failures.length
  def correct: Boolean = failures.isEmpty

  def resultLine(trace: Boolean): String = compact(render(
    ("correct" -> correct) ~
    ("attempted" -> attempted) ~
    ("failed" -> failed) ~
    ("metrics" -> Metric.json(if (trace) perLayer else endToEnd))))
}

/** One benchmark run: set-up, the timed closed loop, the untimed output
  * checks and, when tracing, the traced loop, the GraphX probe and the
  * PHASE_opt |V|-growth ratio.
  *
  * Load is one client in a closed loop: each operation (one hypothesis
  * test) starts when the previous one has returned. The loop runs whole
  * passes over the workload's operations, so every run sees the same
  * operation mix: an untimed warm-up pass, then timed passes until it has
  * run `qualityPasses` passes in all and `seconds` seconds of timed passes.
  */
object Bench {

  /** Outcome of one operation of the timed loop. */
  final case class OpRecord(op: Op, pass: Int, ms: Double, estimate: Option[Double],
      decision: Option[Boolean], fill: Double)

  final case class Setup(datasets: Seq[Dataset], truths: Map[String, EvalResult], repSeconds: Seq[Double])

  /** DBLP scale and sample count of the GraphX probe in traced runs. */
  val graphxScale = 0.1
  val graphxSamples = 4

  def run(spark: SparkSession, s: Settings, sessionMs: Double): Report = {
    val w = s.workload
    val tracer = new Tracer
    val failures = new ArrayBuffer[String]()
    var attempted = 0

    val setup = setUp(spark, w, s.shrink, tracer)
    val heapMb = heapUsedMb()
    val ops = Op.pass(w, setup.datasets)
    val samplers = ops.map(op => new Recording(Tables.samplersFor(op.h)(op.sampler)))

    // ---------------------------------------------------------- timed loop
    val checked = checkSubset(w, ops, s.seed)
    val kept = mutable.Map.empty[Int, (SampledGraph, EvalResult)]
    val digest = new Digest
    val records = new ArrayBuffer[OpRecord]()
    val passSeconds = new ArrayBuffer[Double]()
    // Per pass, the factor that converts its wall-clock times to the
    // reference speed: nominal slice time / the pass's median slice time.
    val passScale = new ArrayBuffer[Double]()
    val refMs = new ArrayBuffer[Double]() // speed reference slices of the timed passes
    (0 until SpeedReference.warmUpSlices).foreach(_ => SpeedReference.slice())
    var t0 = 0L
    var pass = 0
    while (pass <= 1 || pass < w.qualityPasses || System.nanoTime() - t0 < s.seconds * 1e9) {
      val passStart = System.nanoTime()
      if (pass == 1) t0 = passStart
      val passRef = new ArrayBuffer[Double]()
      ops.foreach { op =>
        val rng = new Random(Workload.opSeed(s.seed, pass, op.index))
        val rec = samplers(op.index)
        val start = System.nanoTime()
        val outcome =
          try Right(Framework.runOnce(op.dataset.lg, op.h, rec, op.budget, rng).result)
          catch { case NonFatal(e) => Left(e) }
        val ms = (System.nanoTime() - start) / 1e6
        attempted += 1
        outcome match {
          case Left(e) =>
            failures += s"${op.label} pass $pass threw $e"
            records += OpRecord(op, pass, ms, None, None, 0.0)
          case Right(r) =>
            val (fill, bad) = SampleCheck(op.dataset.lg, rec.last, op.budget)
            bad.foreach(b => failures += s"${op.label} pass $pass: $b")
            if (pass < w.qualityPasses) digest.add(pass, op.index, rec.last, r.estimate)
            if (pass == 0 && checked(op.index)) kept(op.index) = (rec.last, r)
            records += OpRecord(op, pass, ms, r.estimate, r.decision, fill)
        }
        passRef += SpeedReference.slice()
      }
      passScale += SpeedReference.nominalMs / Stat.median(passRef.toSeq)
      if (pass > 0) refMs ++= passRef
      passSeconds += (System.nanoTime() - passStart) / 1e9
      pass += 1
    }
    val wall = (System.nanoTime() - t0) / 1e9
    val refSliceMs = Stat.median(refMs.toSeq)

    // ------------------------------------------------ untimed output checks
    val checkStart = System.nanoTime()
    val nChecks = outputChecks(spark, s, setup, ops, kept.toMap, failures)
    val checkSeconds = (System.nanoTime() - checkStart) / 1e9

    // --------------------------------------------------------------- quality
    val quality = records.filter(_.pass < w.qualityPasses).toSeq
    def truth(r: OpRecord): EvalResult = setup.truths(r.op.h.name)
    val accuracy = quality.count(r => r.decision.isDefined && r.decision == truth(r).decision)
      .toDouble / quality.size
    val relErrs = for {
      r <- quality
      e <- r.estimate
      t <- truth(r).estimate if t != 0.0
    } yield math.abs(e - t) / math.abs(t)
    val estRelErr = Stat.mean(relErrs)

    // Pass 0 warms the JIT up: it counts for quality and checks, not for
    // time. One client in a closed loop completes 1000 / (mean latency in
    // ms) operations per second; the benchmark's own work between
    // operations is left out.
    val timed = records.filter(_.pass > 0).toSeq
    val lat = timed.map(_.ms)
    val latRef = timed.map(r => r.ms * passScale(r.pass))
    val tail = Stat.tail(lat, Workload.tailCap)
    val tailRef = Stat.tail(latRef, Workload.tailCap)
    val opsPerS = 1000.0 * lat.size / lat.sum
    val endToEnd = Seq(
      Metric("ops_per_s", 1000.0 * latRef.size / latRef.sum, "ops/s"),
      Metric("op_ms_p50", Stat.median(latRef), "ms"),
      Metric("op_ms_tail", tailRef.value, "ms"),
      Metric("accuracy", accuracy, "fraction"),
      Metric("setup_s", Stat.median(setup.repSeconds), "s"),
      Metric("heap_used_mb", heapMb, "MB"))

    // ------------------------------------------------------------ traced run
    val perLayer: Seq[Metric] =
      if (!s.trace) Nil
      else {
        val traced = tracedLoop(s, ops, samplers.map(_.inner), tracer, failures)
        attempted += traced.ops.size
        val gx = graphxProbe(spark, s, tracer, failures)
        attempted += gx.size
        val vGrowth =
          if (w.name != "phaseopt-large") 0.0
          else Stat.median(quality.filter(_.pass > 0).map(_.ms)) / Stat.median(phaseOptAtScale1(spark, w, s, ops))
        layerMetrics(setup, tracer, records.toSeq, traced, gx, vGrowth, sessionMs, opsPerS,
          estRelErr, failures.size.toDouble / attempted, refSliceMs)
      }

    val gDigest = graphDigest(setup.datasets)
    val notes = Seq(
      s"workload ${w.name}: ${w.why}",
      f"environment: heap_max_mb=${Runtime.getRuntime.maxMemory / 1048576.0}%.0f " +
        s"spark_master=${spark.sparkContext.master} " +
        setup.datasets.map(d => s"${d.name}@scale${w.scale * s.shrink}").mkString("datasets=", ",", ""),
      s"setup: ${setup.repSeconds.map(x => f"$x%.3f").mkString(", ")} s over ${w.setupReps} set-ups " +
        s"(Spark session start ${sessionMs.round} ms, not included)",
      f"loop: ${lat.size} timed operations in ${pass - 1} passes of ${ops.size} after a warm-up pass, " +
        f"$wall%.2f s, one closed-loop client; " +
        passSeconds.map(x => f"$x%.2f").mkString("passes ", ", ", " s"),
      s"op_ms_tail: ${tail.label} of ${lat.size} operations (${tail.beyond} beyond it)",
      f"speed reference: median slice $refSliceMs%.4f ms over ${refMs.size} slices; per pass " +
        passScale.drop(1).map(x => f"$x%.3f").mkString("x ", ", ", "") +
        f"; wall-clock: ops_per_s=$opsPerS%.3f op_ms_p50=${Stat.median(lat)}%.4f op_ms_tail=${tail.value}%.4f",
      f"accuracy: $accuracy%.4f over ${quality.size} operations; " +
        f"est_rel_err: $estRelErr%.4f over ${relErrs.size} estimates",
      f"fail_rate: ${failures.size} of $attempted (${failures.size.toDouble / attempted}%.4f); " +
        f"output checks: $nChecks against SparkEvaluator in $checkSeconds%.1f s",
      s"digest: ${digest.hex} over ${w.qualityPasses} passes; graph digest: $gDigest") ++
      failures.take(20).map("failure: " + _)

    val report = Report(records.toSeq, attempted, failures.toSeq, endToEnd, perLayer, digest.hex, gDigest, notes)
    writeResults(s, report)
    if (s.trace) tracer.write(new File(s.outDir, s"spans/${w.name}-seed${s.seed}.jsonl"))
    report
  }

  // ------------------------------------------------------------------ set-up

  /** Builds the datasets and H(G) of every hypothesis `setupReps` times and
    * keeps the last set-up. Each set-up is timed on its own.
    */
  def setUp(spark: SparkSession, w: Workload, shrink: Double, tracer: Tracer): Setup = {
    var last: Setup = null
    val reps = (0 until w.setupReps).map { _ =>
      last = null
      val t0 = System.nanoTime()
      val datasets = Workload.datasetNames.map { name =>
        val ag = tracer.span("graphgen.gen", name)(Workload.generate(spark, name, w.scale * shrink))
        val lg = tracer.span("localgraph.build", name)(LocalGraph.fromAttributed(ag))
        Dataset(name, ag, lg)
      }
      val truths = (for (d <- datasets; h <- Catalog.all(d.name).all)
        yield h.name -> tracer.span("evaluator.truth", h.name)(Framework.groundTruth(d.lg, h))).toMap
      val secs = (System.nanoTime() - t0) / 1e9
      last = Setup(datasets, truths, Nil)
      secs
    }
    last.copy(repSeconds = reps)
  }

  def heapUsedMb(): Double = {
    (0 until 3).foreach(_ => System.gc())
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** Hash of every graph's structure and attributes: the same for every
    * seed, because the seed only reaches the samplers.
    */
  def graphDigest(datasets: Seq[Dataset]): String = {
    val d = new Digest
    datasets.foreach { ds =>
      val g = ds.lg
      d.add(0, 0, SampledGraph(g.adjOff ++ g.adjNbr ++ g.adjEdge ++ g.ntypeOf ++ g.etypeOf,
        Some(g.nodeAttrs.map(_.##) ++ g.edgeAttrs.map(_.##) ++ g.ids.map(_.##))), None)
    }
    d.hex
  }

  // ---------------------------------------------------------- output checks

  /** The operations checked against SparkEvaluator: one per dataset. The
    * seed picks the kind and the hypothesis, and on the grid also the
    * sampler, so that different seeds check different operations. RES is
    * left out: its S carries explicit edges instead of being induced.
    */
  def checkSubset(w: Workload, ops: IndexedSeq[Op], seed: Long): Set[Int] = {
    def pick[A](xs: Seq[A], salt: Int): A = xs(Math.floorMod(Workload.mix(seed + salt), xs.size.toLong).toInt)
    val nodeInduced = w.samplers.filterNot(_ == "RES")
    val kind = pick(Workload.kinds, 0)
    val sampler = pick(nodeInduced, 1)
    Workload.datasetNames.flatMap { d =>
      val h = pick(Catalog.all(d).byKind(kind), 2)
      ops.find(op => op.dataset.name == d && op.h == h && op.sampler == sampler).map(_.index)
    }.toSet
  }

  /** Compares LocalEvaluator on S with SparkEvaluator on inducedSubgraph(S)
    * for the kept operations and, where the workload asks for it, H(G) of
    * one hypothesis per dataset (picked by the seed) with SparkEvaluator on
    * G. Each mismatch is a failure. The comparisons are untimed and run as
    * concurrent Spark jobs. Returns the number of comparisons.
    */
  def outputChecks(spark: SparkSession, s: Settings, setup: Setup, ops: IndexedSeq[Op],
      kept: Map[Int, (SampledGraph, EvalResult)], failures: ArrayBuffer[String]): Int = {
    import spark.implicits._
    val onS = kept.toSeq.sortBy(_._1).map { case (i, (sg, local)) =>
      val op = ops(i)
      (s"${op.label} on S", local, () => {
        val ids = sg.nodeIdx.map(op.dataset.lg.ids(_)).toSeq.toDF("id")
        SparkEvaluator.evaluate(op.dataset.ag.inducedSubgraph(ids), op.h)
      })
    }
    val onG = if (!s.workload.checkTruths) Nil else setup.datasets.map { d =>
      val hyps = Catalog.all(d.name).all
      val h = hyps(Math.floorMod(Workload.mix(s.seed + 3), hyps.size.toLong).toInt)
      (s"${d.name}/${h.name} H(G)", setup.truths(h.name), () => SparkEvaluator.evaluate(d.ag, h))
    }
    val pool = Executors.newFixedThreadPool(Main.sparkThreads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    try {
      val checks = onS ++ onG
      val references = Await.result(Future.traverse(checks)(c => Future(c._3())), Duration.Inf)
      for (((what, local, _), reference) <- checks.zip(references) if !agree(local, reference))
        failures += s"$what: LocalEvaluator ${show(local)} but SparkEvaluator ${show(reference)}"
      checks.size
    } finally pool.shutdown()
  }

  def agree(a: EvalResult, b: EvalResult): Boolean =
    a.nRelevant == b.nRelevant && ((a.estimate, b.estimate) match {
      case (None, None)       => true
      case (Some(x), Some(y)) => math.abs(x - y) <= 1e-9 * math.max(1.0, math.abs(y))
      case _                  => false
    })

  private def show(r: EvalResult): String = s"(estimate ${r.estimate.getOrElse("none")}, ${r.nRelevant} relevant)"

  // ------------------------------------------------------------- traced run

  /** Counters of one traced operation. */
  final case class TracedOp(nRelevant: Long, sampleSize: Int, tTestValues: Option[Int])

  final case class Traced(ops: Seq[TracedOp], opsPerS: Double)

  /** Runs whole passes (at least one, and for at least `seconds`), calling
    * each layer's public function itself under a span: sample, extract on
    * S, t-test. Every operation also runs once through `Framework.runOnce`
    * with the same seed, first or second in turn, so that the estimates can
    * be compared and the framework's own time derived. A standalone
    * `labels(path)` call per operation times hypothesis preparation.
    * Throughput is 1000 / (mean duration in ms of the traced `op` spans).
    */
  def tracedLoop(s: Settings, ops: IndexedSeq[Op], samplers: IndexedSeq[Sampler],
      tracer: Tracer, failures: ArrayBuffer[String]): Traced = {
    val out = new ArrayBuffer[TracedOp]()
    val t0 = System.nanoTime()
    var pass = 0
    while (pass < 1 || System.nanoTime() - t0 < s.seconds * 1e9) {
      ops.foreach { op =>
        tracer.op = 1000000 + out.size
        val g = op.dataset.lg
        val smp = samplers(op.index)
        val seed = Workload.opSeed(s.seed, pass, op.index)
        tracer.span("localgraph.labels", op.h.name)(g.labels(op.h.path))

        var counters = TracedOp(0, 0, None)
        def decomposed(): Option[Double] = tracer.span("op", op.label) {
          val sg = tracer.span("sampling.sample", smp.name)(smp.sample(g, op.budget, new Random(seed)))
          val r = tracer.span("evaluator.extract", op.h.kind)(LocalEvaluator.evaluate(g, op.h, Some(sg)))
          val t = if (op.h.agg == Agg.Avg && r.values.nonEmpty)
              Some(tracer.span("stats.ttest", op.h.name)(Stats.tTest(r.values, op.h.c, op.h.op)).n)
            else None
          counters = TracedOp(r.nRelevant, sg.size, t)
          r.estimate
        }
        def whole(): Option[Double] = {
          val r = tracer.span("framework.runOnce", op.label)(
            Framework.runOnce(g, op.h, smp, op.budget, new Random(seed)).result)
          r.estimate
        }
        try {
          val (a, b) =
            if (out.size % 2 == 0) { val x = decomposed(); (x, whole()) }
            else { val y = whole(); (decomposed(), y) }
          if (a != b) failures += s"traced ${op.label} pass $pass: estimate $a but Framework.runOnce gave $b"
        } catch { case NonFatal(e) => failures += s"traced ${op.label} pass $pass threw $e" }
        out += counters
      }
      pass += 1
    }
    tracer.op = -1
    Traced(out.toSeq, 1000.0 * out.size / tracer.named("op").map(_.ms).sum)
  }

  final case class GraphxSample(ms: Double, jobs: Long, tasks: Long, shuffleBytes: Long)

  /** PhaseGraphX.sample then evaluation on S, on a small DBLP graph: the
    * only path into the GraphX/Spark executor layer. Checks that every
    * sample holds distinct ids, all present in G, and fills its budget.
    */
  def graphxProbe(spark: SparkSession, s: Settings, tracer: Tracer,
      failures: ArrayBuffer[String]): Seq[GraphxSample] = {
    val ag = Workload.generate(spark, "DBLP", graphxScale * s.shrink)
    val lg = LocalGraph.fromAttributed(ag)
    val budget = math.max(1, (Tables.proportions(("DBLP", "path")) / 100.0 * lg.numNodes).toInt)
    val counter = new JobCounter
    spark.sparkContext.addSparkListener(counter)
    try (0 until graphxSamples).map { k =>
      val h = Catalog.dblp.path(k % Catalog.dblp.path.size)
      tracer.op = 2000000 + k
      val (ids, jobs, tasks, bytes) = counter.measure(spark.sparkContext, s"perfbench-graphx-$k") {
        tracer.span("graphx.sample", h.name)(
          PhaseGraphX.sample(spark, ag, h, budget, seed = Workload.opSeed(s.seed, 0, k)))
      }
      val ms = tracer.named("graphx.sample").last.ms
      val sg = SampledGraph(ids.map(lg.indexOf))
      val (_, bad) = SampleCheck(lg, sg, budget)
      bad.foreach(b => failures += s"PHASEgx DBLP/${h.name} sample $k: $b")
      if (bad.isEmpty) LocalEvaluator.evaluate(lg, h, Some(sg))
      GraphxSample(ms, jobs, tasks, bytes)
    } finally {
      tracer.op = -1
      spark.sparkContext.removeSparkListener(counter)
    }
  }

  /** PHASE_opt latencies on the scale-1 graphs for the same operations
    * (hypotheses, budgets and seeds) as the timed quality passes of the
    * workload; pass 0 warms up here too.
    */
  def phaseOptAtScale1(spark: SparkSession, w: Workload, s: Settings, ops: IndexedSeq[Op]): Seq[Double] = {
    val small = Workload.datasetNames.map { name =>
      name -> LocalGraph.fromAttributed(Workload.generate(spark, name, s.shrink))
    }.toMap
    val timed = for (pass <- 0 until w.qualityPasses; op <- ops) yield {
      val smp = Tables.samplersFor(op.h)(op.sampler)
      val rng = new Random(Workload.opSeed(s.seed, pass, op.index))
      val t0 = System.nanoTime()
      Framework.runOnce(small(op.dataset.name), op.h, smp, op.budget, rng)
      (pass, (System.nanoTime() - t0) / 1e6)
    }
    timed.collect { case (pass, ms) if pass > 0 => ms }
  }

  // ----------------------------------------------------------- layer metrics

  /** The per-layer metrics of a traced run. A layer the workload does not
    * run (for example a sampler it does not use) reads 0.
    */
  def layerMetrics(setup: Setup, tracer: Tracer, records: Seq[OpRecord], traced: Traced,
      gx: Seq[GraphxSample], vGrowth: Double, sessionMs: Double, opsPerS: Double,
      estRelErr: Double, failRate: Double, refSliceMs: Double): Seq[Metric] = {
    val m = new ArrayBuffer[Metric]()
    def add(name: String, value: Double, unit: String): Unit = m += Metric(name, value, unit)
    def ms(name: String, tag: String => Boolean = _ => true): Seq[Double] =
      tracer.named(name).filter(sp => tag(sp.tag)).map(_.ms)

    add("spark.session_ms", sessionMs, "ms")
    for (d <- Workload.datasetNames) add(s"graphgen.gen_ms.$d", Stat.medianOr0(ms("graphgen.gen", _ == d)), "ms")
    for (d <- Workload.datasetNames)
      add(s"localgraph.build_ms.$d", Stat.medianOr0(ms("localgraph.build", _ == d)), "ms")
    add("localgraph.nodes", setup.datasets.map(_.lg.numNodes.toDouble).sum, "count")
    add("localgraph.half_edges", setup.datasets.map(_.lg.adjNbr.length.toDouble).sum, "count")
    add("localgraph.labels_ms", Stat.medianOr0(ms("localgraph.labels")), "ms")

    for (smp <- Tables.samplerColumns) {
      val xs = ms("sampling.sample", _ == smp)
      add(s"sampling.$smp.sample_ms_p50", Stat.medianOr0(xs), "ms")
      add(s"sampling.$smp.sample_ms_tail", Stat.tail(xs).value, "ms")
    }
    add("sampling.fill", Stat.mean(records.map(_.fill)), "fraction")

    for (k <- Workload.kinds)
      add(s"evaluator.extract_ms.$k", Stat.medianOr0(ms("evaluator.extract", _ == k)), "ms")
    val extractNs = ms("evaluator.extract").sum * 1e6
    val relevant = traced.ops.map(_.nRelevant.toDouble).sum
    val sampled = traced.ops.map(_.sampleSize.toDouble).sum
    add("evaluator.paths_in_s", relevant / traced.ops.size, "count")
    add("evaluator.ns_per_path", if (relevant > 0) extractNs / relevant else 0.0, "ns")
    add("evaluator.relevant_per_node", if (sampled > 0) relevant / sampled else 0.0, "ratio")
    for (d <- Workload.datasetNames; h <- Catalog.all(d).all)
      add(s"evaluator.truth_ms.${h.name}", Stat.medianOr0(ms("evaluator.truth", _ == h.name)), "ms")

    add("stats.ttest_ms", Stat.medianOr0(ms("stats.ttest")), "ms")
    add("stats.values_per_test", Stat.mean(traced.ops.flatMap(_.tTestValues).map(_.toDouble)), "count")

    // Time runOnce spends outside the layers: its span minus the sample,
    // extract and t-test spans of the same operation.
    val selfMs = tracer.spans.filter(_.op >= 0).groupBy(_.op).values.flatMap { ss =>
      for {
        whole <- ss.find(_.name == "framework.runOnce")
        root <- ss.find(_.name == "op")
      } yield whole.ms - ss.filter(_.parent == root.id).map(_.ms).sum
    }.toSeq
    add("framework.self_ms", Stat.medianOr0(selfMs), "ms")

    add("graphx.sample_ms", Stat.medianOr0(gx.map(_.ms)), "ms")
    add("graphx.jobs_per_sample", Stat.mean(gx.map(_.jobs.toDouble)), "count")
    add("graphx.tasks_per_sample", Stat.mean(gx.map(_.tasks.toDouble)), "count")
    add("graphx.shuffle_bytes_per_sample", Stat.mean(gx.map(_.shuffleBytes.toDouble)), "bytes")

    add("phaseopt.v_growth", vGrowth, "ratio")
    add("tracing.ops_per_s_off", opsPerS, "ops/s")
    add("tracing.ops_per_s_on", traced.opsPerS, "ops/s")
    add("est_rel_err", estRelErr, "fraction")
    add("fail_rate", failRate, "fraction")
    add("reference.slice_ms", refSliceMs, "ms")
    m.toSeq
  }

  // ----------------------------------------------------------------- results

  /** Writes every metric, the digests, the notes and each operation's
    * latency of the run.
    */
  def writeResults(s: Settings, r: Report): Unit = {
    val f = new File(s.outDir, s"results/${s.workload.name}-seed${s.seed}-trace${if (s.trace) 1 else 0}.json")
    f.getParentFile.mkdirs()
    val w = new PrintWriter(f, "UTF-8")
    val json: JValue =
      ("workload" -> s.workload.name) ~
      ("seed" -> s.seed) ~
      ("seconds" -> s.seconds) ~
      ("trace" -> s.trace) ~
      ("digest" -> r.digest) ~
      ("graph_digest" -> r.graphDigest) ~
      ("attempted" -> r.attempted) ~
      ("failed" -> r.failed) ~
      ("end_to_end" -> Metric.json(r.endToEnd)) ~
      ("per_layer" -> Metric.json(r.perLayer)) ~
      ("notes" -> r.notes) ~
      ("operations" -> r.records.map(o => ("op" -> o.op.label) ~ ("pass" -> o.pass) ~ ("ms" -> o.ms)))
    try w.println(compact(render(json)))
    finally w.close()
  }
}
