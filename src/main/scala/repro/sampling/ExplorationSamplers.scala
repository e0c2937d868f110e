package repro.sampling

import scala.collection.mutable
import scala.util.Random

import repro.core.{LocalGraph, SampledGraph, Sampler}
import SamplerUtil._

/** The breadth-first expansion SBS and FFS share: a FIFO queue from a
  * uniform seed; each dequeued node recruits `recruit` of its not-yet-sampled
  * neighbors, drawn uniformly, and enqueues them. The count is evaluated
  * after the shuffle, so a random count (FFS) draws after it. The expansion
  * reseeds when the queue runs dry before the budget is met.
  */
private[sampling] object Expansion {
  def sample(g: LocalGraph, budget: Int, rng: Random)(recruit: => Int): SampledGraph = {
    val picked = new NodeBudget(math.min(budget, g.numNodes))
    val queue = mutable.Queue.empty[Int]
    def reseed(): Unit = {
      val s = uniformNode(g, rng)
      if (!picked.contains(s)) { picked.add(s); queue.enqueue(s) }
    }
    reseed()
    var guard = 0
    val cap = stepCap(budget)
    while (!picked.isFull && guard < cap) {
      if (queue.isEmpty) reseed()
      else {
        val v = queue.dequeue()
        val fresh = mutable.ArrayBuffer.empty[Int]
        val seen = new java.util.HashSet[Int]()
        var h = g.adjOff(v)
        while (h < g.adjOff(v + 1)) {
          val u = g.adjNbr(h)
          if (!picked.contains(u) && seen.add(u)) fresh += u
          h += 1
        }
        rng.shuffle(fresh).take(recruit).foreach { u =>
          if (!picked.isFull) { picked.add(u); queue.enqueue(u) }
        }
      }
      guard += 1
    }
    SampledGraph(picked.toArray)
  }
}

/** Snowball Sampler (SBS) [Goodman 1961]: breadth-first chain referral — each
  * visited node recruits up to `k` of its not-yet-visited neighbors; reseeds
  * when a wave dies out before the budget is met.
  */
final case class SnowballSampler(k: Int = 5) extends Sampler {
  val name = "SBS"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    Expansion.sample(g, budget, rng)(k)
}

/** Forest Fire Sampler (FFS) [Leskovec & Faloutsos 2006]: burns a
  * geometrically-distributed number of unvisited neighbors from each burning
  * node (mean p/(1-p), at least one), reseeding when the fire dies.
  */
final case class ForestFireSampler(p: Double = 0.7) extends Sampler {
  val name = "FFS"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    Expansion.sample(g, budget, rng) {
      // Number of failures before first success with success prob 1-p.
      var x = 0
      while (rng.nextDouble() < p && x < 1000) x += 1
      math.max(1, x)
    }
}

/** Shortest Path Sampler (ShortestPathS) [Rafiei & Curial 2005]: repeatedly
  * picks a random (s, t) pair, adds every node on one undirected BFS
  * shortest path between them, until the budget is met.
  */
final case class ShortestPathSampler() extends Sampler {
  val name = "ShortestPathS"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val picked = new NodeBudget(math.min(budget, g.numNodes))
    val parent = new Array[Int](g.numNodes)
    val visited = new Array[Int](g.numNodes) // epoch marker, avoids clears
    val queue = new Array[Int](g.numNodes)   // FIFO; a node enters once per epoch
    var epoch = 0
    var guard = 0
    while (!picked.isFull && guard < 200 * math.max(1, budget / 4) + 100) {
      val s = uniformNode(g, rng)
      val t = uniformNode(g, rng)
      if (s != t) {
        epoch += 1
        visited(s) = epoch; parent(s) = -1
        queue(0) = s
        var head = 0
        var tail = 1
        var found = false
        while (head < tail && !found) {
          val v = queue(head)
          head += 1
          var h = g.adjOff(v)
          while (h < g.adjOff(v + 1) && !found) {
            val u = g.adjNbr(h)
            if (visited(u) != epoch) {
              visited(u) = epoch; parent(u) = v
              if (u == t) found = true else { queue(tail) = u; tail += 1 }
            }
            h += 1
          }
        }
        if (found) {
          var v = t
          while (v != -1 && !picked.isFull) { picked.add(v); v = parent(v) }
        } else {
          picked.add(s) // disconnected pair: still consume budget on the source
        }
      }
      guard += 1
    }
    SampledGraph(picked.toArray)
  }
}
