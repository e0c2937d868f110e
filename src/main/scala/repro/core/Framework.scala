package repro.core

import scala.util.Random

/** A graph sampler: draws a sampled graph S of at most `budget` cost units
  * from G (paper §2.3: sampling one node or one edge costs 1).
  * Hypothesis-aware samplers (PHASE) receive H at construction time, so the
  * framework drives every sampler through this one interface (Figure 2).
  */
trait Sampler {
  def name: String
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph
}

/** The sampling-based hypothesis testing framework of Figure 2:
  * sample → extract relevant nodes/edges/paths → aggregate → test.
  */
object Framework {

  /** Outcome of a single sample-and-test run. */
  final case class RunOutcome(
      result: EvalResult,
      ttest: Option[Stats.TTest],
      sampleMillis: Double,
      extractMillis: Double,
      sampledNodes: Int) {
    def totalMillis: Double = sampleMillis + extractMillis
  }

  /** Accuracy + timing over repeated runs (paper §4.2). */
  final case class Accuracy(
      accuracy: Double,
      runs: Int,
      avgSampleMillis: Double,
      avgExtractMillis: Double,
      avgEstimate: Option[Double]) {
    def avgTotalMillis: Double = avgSampleMillis + avgExtractMillis
  }

  /** Ground truth H(G), computed on the full local mirror. Its `values` is
    * empty, neither values nor multiplicities: a caller reads the estimate,
    * the decision and the count, and the pairs of G would be held for as
    * long as the truth is kept.
    */
  def groundTruth(g: LocalGraph, h: Hypothesis): EvalResult =
    LocalEvaluator.evaluate(g, h).copy(values = Values.empty)

  /** One run: sample S with the given budget, extract + aggregate on S, and
    * (for mean-style hypotheses) run the one-sample t-test against c, on
    * the (value, multiplicity) pairs of S with the Avg estimate as its mean.
    */
  def runOnce(g: LocalGraph, h: Hypothesis, sampler: Sampler, budget: Int,
              rng: Random): RunOutcome = {
    val t0 = System.nanoTime()
    val s = sampler.sample(g, budget, rng)
    val t1 = System.nanoTime()
    val result = LocalEvaluator.evaluate(g, h, Some(s))
    val t2 = System.nanoTime()
    val ttest =
      if (h.agg == Agg.Avg && result.values.nonEmpty)
        Some(Stats.tTest(result.values, h.c, h.op, knownMean = result.estimate))
      else None
    RunOutcome(result, ttest, (t1 - t0) / 1e6, (t2 - t1) / 1e6, s.size)
  }

  /** Paper §4.2 accuracy: the fraction of runs whose decision on S matches
    * the decision on G. A run that samples no relevant item (no estimate)
    * counts as a mismatch — that is what drives the near-zero accuracies of
    * node/edge samplers on path hypotheses in Table 3.
    */
  def accuracy(g: LocalGraph, h: Hypothesis, sampler: Sampler, budget: Int,
               runs: Int, seed: Long,
               truth: => EvalResult): Accuracy = {
    val truthDecision = truth.decision
      .getOrElse(throw new IllegalArgumentException(
        s"hypothesis ${h.name} has no relevant items in G — ground truth undefined"))
    var matched = 0
    var sMs = 0.0
    var eMs = 0.0
    var estSum = 0.0
    var estN = 0
    var r = 0
    while (r < runs) {
      val out = runOnce(g, h, sampler, budget, new Random(seed + r))
      if (out.result.decision.contains(truthDecision)) matched += 1
      sMs += out.sampleMillis
      eMs += out.extractMillis
      out.result.estimate.foreach { e => estSum += e; estN += 1 }
      r += 1
    }
    Accuracy(matched.toDouble / runs, runs, sMs / runs, eMs / runs,
      if (estN > 0) Some(estSum / estN) else None)
  }
}
