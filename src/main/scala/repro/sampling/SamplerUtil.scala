package repro.sampling

import scala.util.Random

import repro.core.LocalGraph

/** Shared helpers for driver-side samplers. */
object SamplerUtil {

  /** Index i < n drawn ∝ weights(i); the first n weights must be
    * non-negative with a positive sum.
    */
  def weightedIndex(weights: Array[Double], n: Int, rng: Random): Int = {
    var total = 0.0
    var i = 0
    while (i < n) { total += weights(i); i += 1 }
    require(total > 0, "weighted selection over all-zero weights")
    var u = rng.nextDouble() * total
    i = 0
    while (i < n - 1) {
      u -= weights(i)
      if (u <= 0) return i
      i += 1
    }
    n - 1
  }

  /** k distinct indices drawn uniformly from 0 until n, in draw order: the
    * first k places of a partial Fisher-Yates shuffle of the identity
    * permutation, one `nextInt` per place. Only the places a swap has moved
    * are stored, in a map from place to index, so a call takes O(k) time and
    * space, not O(n).
    */
  def partialShuffle(n: Int, k: Int, rng: Random): Array[Int] = {
    val moved = new java.util.HashMap[Int, Int](2 * k)
    val out = new Array[Int](k)
    var i = 0
    while (i < k) {
      val j = i + rng.nextInt(n - i)
      // Place i is never read again: later swaps lie past it.
      out(i) = moved.getOrDefault(j, j)
      moved.put(j, moved.getOrDefault(i, i))
      i += 1
    }
    out
  }

  def uniformNode(g: LocalGraph, rng: Random): Int = rng.nextInt(g.numNodes)

  /** Uniform neighbor of `v` (requires degree > 0). */
  def uniformNeighbor(g: LocalGraph, v: Int, rng: Random): Int = {
    val d = g.degree(v)
    g.adjNbr(g.adjOff(v) + rng.nextInt(d))
  }

  /** Collector that accumulates distinct node indices up to a budget, in
    * the order they are added: an unboxed array of the budget's size.
    */
  final class NodeBudget(budget: Int) {
    private val seen = new java.util.BitSet()
    private val order = new Array[Int](budget)
    private var n = 0
    def add(i: Int): Unit =
      if (!seen.get(i) && n < budget) { seen.set(i); order(n) = i; n += 1 }
    def contains(i: Int): Boolean = seen.get(i)
    def isFull: Boolean = n >= budget
    def size: Int = n
    def toArray: Array[Int] = java.util.Arrays.copyOf(order, n)
  }

  /** Cap on total walk steps so trapped walkers cannot loop forever; on hit,
    * samplers return what they have (tests assert budgets are reached on the
    * connected synthetic graphs).
    */
  def stepCap(budget: Int): Int = math.max(10000, 500 * budget)
}
