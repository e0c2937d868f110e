package repro.sampling

import org.apache.spark.sql.SparkSession
import scala.util.Random

import repro.core.{AttributedGraph, Hypothesis, LocalGraph, SampledGraph, Sampler}

/** Adapter exposing [[PhaseGraphX]] through the uniform [[Sampler]]
  * interface: samples on the distributed graph, then maps the returned
  * external ids onto the local mirror for evaluation.
  */
final case class PhaseGraphXSampler(
    spark: SparkSession,
    ag: AttributedGraph,
    h: Hypothesis,
    m: Int = 50,
    wh: Double = 10.0,
    wl: Double = 0.1) extends Sampler {
  val name = "PHASEgx"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val ids = PhaseGraphX.sample(spark, ag, h, budget, m, wh, wl, seed = rng.nextLong())
    SampledGraph(ids.map(g.indexOf).filter(_ >= 0))
  }
}
