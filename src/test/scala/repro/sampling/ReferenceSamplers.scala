package repro.sampling

import scala.collection.mutable
import scala.util.Random

import repro.core.{LocalGraph, SampledGraph}
import SamplerUtil._

/** Slow references for the samplers whose fast paths must return the same
  * samples and leave the RNG in the same state: the one-sided BFS
  * ShortestPathS, the SBS/FFS expansion with a boxed queue, a fresh
  * buffer and hash set per dequeued node, and `Random.shuffle`, and the
  * partial Fisher-Yates shuffle of RNS and RES over a whole identity array.
  */
object ReferenceSamplers {

  /** [[SamplerUtil.partialShuffle]] on a dense array: the first k places of
    * a Fisher-Yates shuffle of 0 until n, one `nextInt` per place.
    */
  def partialShuffle(n: Int, k: Int, rng: Random): Array[Int] = {
    val idx = Array.range(0, n)
    for (i <- 0 until k) {
      val j = i + rng.nextInt(n - i)
      val t = idx(i); idx(i) = idx(j); idx(j) = t
    }
    idx.take(k)
  }

  /** ShortestPathS: for each (s, t) pair, a one-sided BFS from s (FIFO, CSR
    * order, parent set on discovery) that stops when it discovers t; the
    * path is t's parent chain, added from t back to s.
    */
  def shortestPath(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val picked = new NodeBudget(math.min(budget, g.numNodes))
    val parent = new Array[Int](g.numNodes)
    val visited = new Array[Int](g.numNodes)
    val queue = new Array[Int](g.numNodes)
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
          picked.add(s)
        }
      }
      guard += 1
    }
    SampledGraph(picked.toArray)
  }

  /** The SBS/FFS expansion: a FIFO queue from a uniform seed; each dequeued
    * node shuffles its distinct not-yet-sampled neighbors and recruits the
    * first `recruit` of them, the count evaluated after the shuffle.
    */
  def expansion(g: LocalGraph, budget: Int, rng: Random)(recruit: => Int): SampledGraph = {
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

  def snowball(k: Int)(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    expansion(g, budget, rng)(k)

  def forestFire(p: Double)(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    expansion(g, budget, rng) {
      var x = 0
      while (rng.nextDouble() < p && x < 1000) x += 1
      math.max(1, x)
    }
}
