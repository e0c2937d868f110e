package repro.sampling

import scala.util.Random

import repro.core.{LocalGraph, SampledGraph, Sampler}

/** Random Edge Sampler (RES) [Krishnamurthy et al. 2005]: B edges uniformly
  * at random without replacement; S consists of exactly those edges plus
  * their endpoints (not the induced subgraph — which is what makes RES blind
  * to most path structure, per Table 3).
  */
final case class RandomEdgeSampler() extends Sampler {
  val name = "RES"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val edges = SamplerUtil.partialShuffle(g.numEdges, math.min(budget, g.numEdges), rng)
    val nodes = new java.util.BitSet()
    edges.foreach { e => nodes.set(g.edgeSrc(e)); nodes.set(g.edgeDst(e)) }
    SampledGraph(nodes.stream().toArray, Some(edges))
  }
}
