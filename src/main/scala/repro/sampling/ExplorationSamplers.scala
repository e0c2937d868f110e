package repro.sampling

import scala.util.Random

import repro.core.{LocalGraph, SampledGraph, Sampler}
import SamplerUtil._

/** The breadth-first expansion SBS and FFS share: a FIFO queue from a
  * uniform seed; each dequeued node recruits `recruit` of its not-yet-sampled
  * neighbors, drawn uniformly, and enqueues them. The count is evaluated
  * after the shuffle, so a random count (FFS) draws after it. The expansion
  * reseeds when the queue runs dry before the budget is met.
  *
  * Nothing is allocated per node: a node enters the queue when it is picked,
  * so at most once; the distinct fresh neighbors go into one buffer of the
  * maximum degree, deduplicated by an epoch mark per dequeued node, and are
  * shuffled in place with the draws of `Random.shuffle`.
  */
private[sampling] object Expansion {
  def sample(g: LocalGraph, budget: Int, rng: Random)(recruit: => Int): SampledGraph = {
    val picked = new NodeBudget(math.min(budget, g.numNodes))
    val queue = new Array[Int](g.numNodes)
    queue(0) = uniformNode(g, rng)
    picked.add(queue(0))
    var head = 0
    var tail = 1
    val fresh = new Array[Int](g.maxDegree)
    val mark = new Array[Int](g.numNodes) // mark(u) == epoch: u is in `fresh`
    var epoch = 0
    var guard = 0
    val cap = stepCap(budget)
    while (!picked.isFull && guard < cap) {
      if (head == tail) {
        val s = uniformNode(g, rng)
        if (!picked.contains(s)) { picked.add(s); queue(tail) = s; tail += 1 }
      } else {
        val v = queue(head)
        head += 1
        epoch += 1
        var n = 0
        var h = g.adjOff(v)
        while (h < g.adjOff(v + 1)) {
          val u = g.adjNbr(h)
          if (!picked.contains(u) && mark(u) != epoch) { mark(u) = epoch; fresh(n) = u; n += 1 }
          h += 1
        }
        shuffle(fresh, n, rng)
        val k = math.min(recruit, n)
        var i = 0
        while (i < k && !picked.isFull) { picked.add(fresh(i)); queue(tail) = fresh(i); tail += 1; i += 1 }
      }
      guard += 1
    }
    SampledGraph(picked.toArray)
  }

  /** Fisher–Yates on xs[0, n), making the `nextInt` calls of `Random.shuffle`. */
  private def shuffle(xs: Array[Int], n: Int, rng: Random): Unit = {
    var i = n
    while (i >= 2) {
      val j = rng.nextInt(i)
      val x = xs(i - 1); xs(i - 1) = xs(j); xs(j) = x
      i -= 1
    }
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
  * shortest path between them, from t back to s, until the budget is met.
  * The path is the one a one-sided BFS from s (FIFO, CSR order) finds;
  * [[ShortestPaths]] finds it by a bidirectional search.
  */
final case class ShortestPathSampler() extends Sampler {
  val name = "ShortestPathS"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val picked = new NodeBudget(math.min(budget, g.numNodes))
    val paths = new ShortestPaths(g)
    var guard = 0
    while (!picked.isFull && guard < 200 * math.max(1, budget / 4) + 100) {
      val s = uniformNode(g, rng)
      val t = uniformNode(g, rng)
      if (s != t) {
        if (!paths.add(s, t, picked)) picked.add(s) // disconnected pair: still consume budget on the source
      } else if (g.numNodes == 1) picked.add(s) // the one node is its own path
      guard += 1
    }
    SampledGraph(picked.toArray)
  }
}

/** The shortest s–t path a one-sided BFS from s finds, by a level-synchronous
  * bidirectional BFS [Pohl 1971].
  *
  * A one-sided BFS (FIFO, neighbors in CSR order, parent set on discovery)
  * reaches t by the lexicographically first shortest path, comparing paths
  * by the CSR position of each step. The s-side here expands whole levels
  * the same way, so its parents are the one-sided BFS's; the t-side records
  * each node's distance to t, level by level. When the sides meet, with the
  * s-side's last level a and the t-side's depth b, the path runs from s to
  * the meeting node m, the first node of level a in queue order at distance
  * b from t (by the parents), then to t, at each node by the first CSR
  * neighbor one step closer to t ([[firstToLevel]]). The t-side stops at
  * the first node of level b the s-side has seen, and m is found as the
  * first node of level a with a neighbor at t-level b − 1; only if that
  * search would scan more half-edges than the rest of the t-level does the
  * t-level finish first. Each round expands the side whose frontier has
  * fewer half-edges, which changes only the cost: two balls around s and t
  * instead of one of radius d(s, t).
  */
private[sampling] final class ShortestPaths(g: LocalGraph) {
  private val sSeen = new Array[Int](g.numNodes) // epoch stamps, so no clears
  private val parent = new Array[Int](g.numNodes)
  private val sQueue = new Array[Int](g.numNodes) // levels in order; a node enters once
  private val tSeen = new Array[Int](g.numNodes)
  private val distT = new Array[Int](g.numNodes)
  private val tQueue = new Array[Int](g.numNodes)
  private val levelAt = new Array[Int](g.numNodes + 1) // t-level k is tQueue[levelAt(k), levelAt(k + 1))
  private val levelVol = new Array[Int](g.numNodes) // the half-edges of t-level k's rows
  private val hops = new Array[Int](g.numNodes) // m to t
  private var epoch = 0

  /** Adds the path's nodes to `picked` from t back to s, until it is full;
    * false if s and t are not connected.
    */
  def add(s: Int, t: Int, picked: NodeBudget): Boolean = {
    val m = meet(s, t)
    if (m < 0) return false
    var n = 0
    hops(0) = m
    while (distT(hops(n)) > 0) {
      val v = hops(n)
      n += 1
      hops(n) = g.adjNbr(firstToLevel(v, distT(v) - 1))
    }
    while (n >= 0 && !picked.isFull) { picked.add(hops(n)); n -= 1 }
    var v = parent(m)
    while (v != -1 && !picked.isFull) { picked.add(v); v = parent(v) }
    true
  }

  /** The first half-edge of v's row, in CSR order, to a node at distance k
    * from t, or -1; t-levels 0 to k must be complete. When level k's rows
    * hold fewer half-edges than v's, they are scanned for the edges to v:
    * `Builder.result` writes every row in edge order, so the answer is the
    * twin, found by binary search on `adjEdge`, of the least such edge.
    */
  private def firstToLevel(v: Int, k: Int): Int = {
    val lo = g.adjOff(v)
    val hi = g.adjOff(v + 1)
    if (levelVol(k) < hi - lo) {
      var e = Int.MaxValue
      var i = levelAt(k)
      while (i < levelAt(k + 1)) {
        val w = tQueue(i)
        var h = g.adjOff(w)
        while (h < g.adjOff(w + 1)) { if (g.adjNbr(h) == v && g.adjEdge(h) < e) e = g.adjEdge(h); h += 1 }
        i += 1
      }
      if (e == Int.MaxValue) -1 else java.util.Arrays.binarySearch(g.adjEdge, lo, hi, e)
    } else {
      var h = lo
      while (h < hi && !(tSeen(g.adjNbr(h)) == epoch && distT(g.adjNbr(h)) == k)) h += 1
      if (h < hi) h else -1
    }
  }

  /** The first node of `sQueue` from index `from` on with a neighbor at
    * t-level b − 1, given distance b; -1 if the search would scan more than
    * `budget` half-edges. One such node must lie ahead.
    */
  private def nextToLevel(from: Int, b: Int, budget: Int): Int = {
    var j = from
    var left = budget - math.min(g.degree(sQueue(j)), levelVol(b - 1))
    while (left >= 0 && firstToLevel(sQueue(j), b - 1) < 0) {
      j += 1
      left -= math.min(g.degree(sQueue(j)), levelVol(b - 1))
    }
    if (left < 0) return -1
    val m = sQueue(j)
    tSeen(m) = epoch; distT(m) = b
    m
  }

  /** The meeting node m, or -1 if a side runs dry first. */
  private def meet(s: Int, t: Int): Int = {
    epoch += 1
    sSeen(s) = epoch; parent(s) = -1; sQueue(0) = s
    tSeen(t) = epoch; distT(t) = 0; tQueue(0) = t
    levelAt(0) = 0; levelVol(0) = g.degree(t)
    var sLo = 0; var sHi = 1; var sVol = g.degree(s) // last level: sQueue[sLo, sHi)
    var tLo = 0; var tHi = 1 // last level: tQueue[tLo, tHi), levelVol(b)
    var b = 0
    while (sLo < sHi && tLo < tHi) {
      if (sVol <= levelVol(b)) {
        // Expand the s-side's last level. The first new node the t-side
        // has seen is m: it is at distance b from t.
        val end = sHi
        sVol = 0
        var i = sLo
        while (i < end) {
          val v = sQueue(i)
          var h = g.adjOff(v)
          while (h < g.adjOff(v + 1)) {
            val u = g.adjNbr(h)
            if (sSeen(u) != epoch) {
              sSeen(u) = epoch; parent(u) = v
              if (tSeen(u) == epoch) return u
              sQueue(sHi) = u; sHi += 1; sVol += g.degree(u)
            }
            h += 1
          }
          i += 1
        }
        sLo = end
      } else {
        // Expand the t-side's next level. A node on it that the s-side
        // has seen is on the s-side's last level, whose first node at
        // distance b is m. At the first such node, look for m while that
        // costs no more than the rest of the level, else finish the level.
        val end = tHi
        b += 1
        levelAt(b) = end
        var left = levelVol(b - 1) // half-edges of level b - 1 not yet scanned
        var vol = 0
        var hit = false
        var i = tLo
        while (i < end) {
          val v = tQueue(i)
          var h = g.adjOff(v)
          while (h < g.adjOff(v + 1)) {
            val u = g.adjNbr(h)
            left -= 1
            if (tSeen(u) != epoch) {
              tSeen(u) = epoch; distT(u) = b
              tQueue(tHi) = u; tHi += 1; vol += g.degree(u)
              if (sSeen(u) == epoch && !hit) {
                hit = true
                val m = nextToLevel(sLo, b, left)
                if (m >= 0) return m
              }
            }
            h += 1
          }
          i += 1
        }
        tLo = end
        levelVol(b) = vol
        if (hit) {
          var j = sLo
          while (tSeen(sQueue(j)) != epoch) j += 1
          return sQueue(j)
        }
      }
    }
    -1
  }
}
