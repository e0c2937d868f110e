package repro.sampling

import scala.util.Random

import repro.core.{LocalGraph, SampledGraph, Sampler}
import SamplerUtil._

/** The walk SRW, NBRW, RWR and MHRW share: one walker from a uniform seed,
  * where each newly visited node costs one budget unit. Each sampler supplies
  * its `move` from the current node and what a teleport to a node resets
  * (`restart`, also called for the first seed). The walker teleports to a
  * fresh uniform node when it has made no progress for more than `patience`
  * steps, or when it sits on a node without edges.
  */
private[sampling] object RestartWalk {
  def sample(g: LocalGraph, budget: Int, rng: Random, patience: Int = 200)(
      restart: Int => Unit)(move: Int => Int): SampledGraph = {
    val picked = new NodeBudget(math.min(budget, g.numNodes))
    var v = 0
    var sinceProgress = 0
    def teleport(): Unit = {
      v = uniformNode(g, rng)
      restart(v)
      picked.add(v)
      sinceProgress = 0
    }
    teleport()
    var steps = 0
    val cap = stepCap(budget)
    while (!picked.isFull && steps < cap) {
      if (g.degree(v) == 0) teleport()
      else {
        v = move(v)
        val before = picked.size
        picked.add(v)
        sinceProgress = if (picked.size > before) 0 else sinceProgress + 1
        if (sinceProgress > patience) teleport()
      }
      steps += 1
    }
    SampledGraph(picked.toArray)
  }
}

/** Simple Random Walk (SRW) [Gjoka et al. 2010]: uniform-neighbor walk from a
  * random seed; each newly visited node costs one budget unit; the walk
  * teleports to a fresh uniform node when it stops making progress.
  */
final case class SimpleRandomWalk() extends Sampler {
  val name = "SRW"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    RestartWalk.sample(g, budget, rng)(_ => ())(v => uniformNeighbor(g, v, rng))
}

/** Non-Backtracking Random Walk (NBRW) [Lee et al. 2012]: like SRW, but at
  * a node of degree > 1 a step drawn back to the previous node is redrawn,
  * at most 16 times; the last draw is taken even if it goes back.
  */
final case class NonBacktrackingRandomWalk() extends Sampler {
  val name = "NBRW"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    var prev = -1
    RestartWalk.sample(g, budget, rng)(_ => prev = -1) { v =>
      val d = g.degree(v)
      var u = g.adjNbr(g.adjOff(v) + rng.nextInt(d))
      // Redraw among all d half-edges while the step goes back.
      var tries = 0
      while (u == prev && d > 1 && tries < 16) {
        u = g.adjNbr(g.adjOff(v) + rng.nextInt(d)); tries += 1
      }
      prev = v
      u
    }
  }
}

/** Random Walk with Restart (RWR): SRW that jumps back to its seed with
  * probability `restartProb` at every step; a teleport picks a new seed.
  */
final case class RandomWalkWithRestart(restartProb: Double = 0.15) extends Sampler {
  val name = "RWR"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    var seed = -1
    RestartWalk.sample(g, budget, rng)(s => seed = s) { v =>
      if (rng.nextDouble() < restartProb) seed else uniformNeighbor(g, v, rng)
    }
  }
}

/** Metropolis-Hastings Random Walk (MHRW) [Hübler et al. 2008]: proposes a
  * uniform neighbor u of v and accepts with min(1, deg(v)/deg(u)), making the
  * stationary distribution uniform over nodes. A rejected proposal is a step
  * without progress, so it allows 400 such steps before teleporting, not 200.
  */
final case class MetropolisHastingsRandomWalk() extends Sampler {
  val name = "MHRW"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    RestartWalk.sample(g, budget, rng, patience = 400)(_ => ()) { v =>
      val u = uniformNeighbor(g, v, rng)
      if (rng.nextDouble() < g.degree(v).toDouble / g.degree(u).toDouble) u else v
    }
}

/** Frontier Sampler (FrontierS) [Ribeiro & Towsley 2010]: m dependent walkers;
  * each step picks the walker to advance with probability ∝ its current
  * node's degree, then moves it to a uniform neighbor. PHASE (Algorithm 1)
  * is this sampler plus the two hypothesis-aware weight functions. A walker
  * on a node without edges teleports to a fresh uniform node.
  */
final case class FrontierSampler(m: Int = 50) extends Sampler {
  val name = "FrontierS"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val b = math.min(budget, g.numNodes)
    val walkers = Array.fill(math.min(m, math.max(1, b)))(uniformNode(g, rng))
    val picked = new NodeBudget(b)
    walkers.foreach(picked.add)
    var steps = 0
    val cap = stepCap(budget)
    val w = new Array[Double](walkers.length)
    while (!picked.isFull && steps < cap) {
      var total = 0.0
      var i = 0
      while (i < walkers.length) {
        if (g.degree(walkers(i)) == 0) { walkers(i) = uniformNode(g, rng); picked.add(walkers(i)) }
        w(i) = g.degree(walkers(i)).toDouble
        total += w(i)
        i += 1
      }
      // All walkers can land on edge-less nodes again; they teleport next step.
      if (total > 0) {
        val k = weightedIndex(w, walkers.length, rng)
        val u = uniformNeighbor(g, walkers(k), rng)
        walkers(k) = u
        picked.add(u)
      }
      steps += 1
    }
    SampledGraph(picked.toArray)
  }
}
