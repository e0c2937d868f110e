package repro.sampling

import scala.util.Random

import repro.core.{LocalGraph, SampledGraph, Sampler}
import SamplerUtil._

/** Random Node Sampler (RNS) [Stumpf et al. 2005]: B nodes uniformly at
  * random without replacement; S is the induced subgraph.
  */
final case class RandomNodeSampler() extends Sampler {
  val name = "RNS"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    SampledGraph(partialShuffle(g.numNodes, math.min(budget, g.numNodes), rng))
}

/** Degree-Based Sampler (DBS): B nodes without replacement, each drawn with
  * probability proportional to its (undirected) degree.
  */
final case class DegreeBasedSampler() extends Sampler {
  val name = "DBS"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val b = math.min(budget, g.numNodes)
    val picked = new NodeBudget(b)
    // Rejection sampling against the degree distribution: draw a half-edge
    // endpoint uniformly (∝ degree), skip repeats. If the draws run out
    // first (tiny graphs with b close to n), the unpicked nodes fill the
    // rest in index order.
    val halfEdges = g.adjNbr.length
    var attempts = 0
    val maxAttempts = math.max(1000, 50 * b)
    while (!picked.isFull && attempts < maxAttempts && halfEdges > 0) {
      val h = rng.nextInt(halfEdges)
      // Owner of half-edge h: binary search in adjOff.
      var lo = 0; var hi = g.numNodes
      while (lo + 1 < hi) {
        val mid = (lo + hi) >>> 1
        if (g.adjOff(mid) <= h) lo = mid else hi = mid
      }
      picked.add(lo)
      attempts += 1
    }
    var i = 0
    while (!picked.isFull && i < g.numNodes) { picked.add(i); i += 1 }
    SampledGraph(picked.toArray)
  }
}
