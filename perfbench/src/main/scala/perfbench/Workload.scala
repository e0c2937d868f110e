package perfbench

import java.io.{BufferedOutputStream, DataOutputStream, OutputStream}
import java.security.{DigestOutputStream, MessageDigest}
import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.eval.Tables
import repro.graphgen.GraphGen
import repro.hypotheses.Catalog

/** One benchmark workload: which datasets it builds, which operations (one
  * hypothesis test each) a pass runs, and how a run is sized.
  *
  * @param scale         GraphGen scale of the datasets; budgets are
  *                      `Tables.proportions` of |V| / scale, which keeps the
  *                      scale-1 budgets because GraphGen's node counts grow
  *                      linearly with scale
  * @param samplers      sampler columns run per hypothesis
  * @param checkTruths   also check H(G) of one hypothesis per dataset against
  *                      SparkEvaluator on the full graph (affordable at scale 1)
  * @param qualityPasses passes every run completes; accuracy, estimate error
  *                      and the digest are taken over exactly these, so they
  *                      depend on the seed only, never on speed; enough
  *                      that every run has the 200 timed operations p95
  *                      needs (see `tailCap`)
  * @param setupReps     set-ups per run; `setup_s` is their median
  */
final case class Workload(
    name: String,
    why: String,
    scale: Double,
    samplers: Seq[String],
    checkTruths: Boolean,
    qualityPasses: Int,
    setupReps: Int)

object Workload {
  val datasetNames: Seq[String] = Seq("MovieLens", "DBLP", "Yelp")
  val kinds: Seq[String] = Seq("node", "edge", "path")

  /** Highest percentile `op_ms_tail` may use, so that a run which completes
    * more operations reports the same percentile, not a higher one.
    */
  val tailCap = 95.0

  val all: Seq[Workload] = Seq(
    Workload("grid",
      "Table 3/4 grid: 12 samplers x 27 hypotheses at scale 1; time goes to the sampling layer, mostly ShortestPathS",
      scale = 1.0, samplers = Tables.samplerColumns, checkTruths = true,
      qualityPasses = 2, setupReps = 3),
    Workload("phaseopt-large",
      "PHASE_opt on the 27 hypotheses at scale 4 with the scale-1 budgets: |V| x4 at fixed B, so work growing with |V| shows",
      scale = 4.0, samplers = Seq("PHASEopt"), checkTruths = false,
      qualityPasses = 9, setupReps = 2))

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** The datasets keep GraphGen's default graph seeds: the Catalog constants
    * were calibrated on those graphs.
    */
  def generate(spark: SparkSession, dataset: String, scale: Double): AttributedGraph =
    dataset match {
      case "MovieLens" => GraphGen.movieLens(spark, scale)
      case "DBLP"      => GraphGen.dblp(spark, scale)
      case "Yelp"      => GraphGen.yelp(spark, scale)
    }

  /** splitmix64 finalizer. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** The sampler seed of operation `index` in pass `pass`: the only thing
    * the workload seed changes.
    */
  def opSeed(seed: Long, pass: Int, index: Int): Long =
    mix(mix(mix(seed) ^ pass.toLong) ^ index.toLong)
}

final case class Dataset(name: String, ag: AttributedGraph, lg: LocalGraph)

/** One operation: one hypothesis test on one dataset with one sampler. */
final case class Op(index: Int, dataset: Dataset, h: Hypothesis, sampler: String, budget: Int) {
  def label: String = s"${dataset.name}/${h.name}/$sampler"
}

object Op {
  /** A pass in Table 3/4 order: dataset, kind, sampler, hypothesis. */
  def pass(w: Workload, datasets: Seq[Dataset]): IndexedSeq[Op] = {
    val specs = for {
      d <- datasets
      kind <- Workload.kinds
      s <- w.samplers
      h <- Catalog.all(d.name).byKind(kind)
    } yield {
      val budget = math.max(1, (Tables.proportions((d.name, kind)) / 100.0 * d.lg.numNodes / w.scale).toInt)
      (d, h, s, budget)
    }
    specs.zipWithIndex.map { case ((d, h, s, b), i) => Op(i, d, h, s, b) }.toIndexedSeq
  }
}

/** Passes a [[Sampler]] through unchanged and keeps the last sample it drew,
  * so the benchmark can check and hash S after `Framework.runOnce`.
  */
final class Recording(val inner: Sampler) extends Sampler {
  def name: String = inner.name
  var last: SampledGraph = SampledGraph(Array.empty)
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val s = inner.sample(g, budget, rng)
    last = s
    s
  }
}

object SampleCheck {

  /** Budget fill and the reason the sample is invalid, if it is. Budgets
    * count nodes, except for RES, whose budget counts edges (paper §2.3).
    */
  def apply(g: LocalGraph, s: SampledGraph, budget: Int): (Double, Option[String]) = {
    def distinctInRange(xs: Array[Int], n: Int, what: String): Option[String] = {
      val seen = new java.util.BitSet(n)
      xs.iterator.map { x =>
        if (x < 0 || x >= n) Some(s"$what index $x out of range")
        else if (seen.get(x)) Some(s"duplicate $what index $x")
        else { seen.set(x); None }
      }.collectFirst { case Some(msg) => msg }
    }
    val (cost, capacity) = s.edgeIdx match {
      case Some(es) => (es.length, math.min(budget, g.numEdges))
      case None     => (s.size, math.min(budget, g.numNodes))
    }
    val bad = distinctInRange(s.nodeIdx, g.numNodes, "node")
      .orElse(s.edgeIdx.flatMap(distinctInRange(_, g.numEdges, "edge")))
      .orElse(if (cost > budget) Some(s"|S| = $cost exceeds budget $budget") else None)
      .orElse(if (cost < capacity) Some(s"|S| = $cost under-fills budget $capacity") else None)
    (cost.toDouble / math.max(1, capacity), bad)
  }
}

/** SHA-256 over each operation's S and estimate, in execution order. */
final class Digest {
  private val md = MessageDigest.getInstance("SHA-256")
  private val out = new DataOutputStream(
    new BufferedOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md), 1 << 16))

  def add(pass: Int, op: Int, s: SampledGraph, estimate: Option[Double]): Unit = {
    out.writeInt(pass)
    out.writeInt(op)
    out.writeInt(s.nodeIdx.length)
    s.nodeIdx.foreach(out.writeInt)
    s.edgeIdx.foreach { es => out.writeInt(es.length); es.foreach(out.writeInt) }
    estimate match {
      case Some(e) => out.writeBoolean(true); out.writeDouble(e)
      case None    => out.writeBoolean(false)
    }
  }

  def hex: String = {
    out.flush()
    md.clone().asInstanceOf[MessageDigest].digest().take(8).map(b => f"$b%02x").mkString
  }
}
