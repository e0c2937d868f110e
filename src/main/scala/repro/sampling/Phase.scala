package repro.sampling

import scala.util.Random

import repro.core.{Hypothesis, LocalGraph, SampledGraph, Sampler}
import SamplerUtil._

/** Figure 3's transition rule, generalized from the transition probability
  * matrices of the figure to a path of length l. A walker carries a *match
  * progress* k: how many leading path positions its recent trajectory
  * matches, its current node being position k-1. A move to a candidate
  * neighbor u
  *   - extends the match (weight w_h) if the edge it takes realizes step
  *     k-1's edge type in the declared direction and u satisfies M_k;
  *   - can start a fresh match (weight w_h) if u satisfies M_0 (x_1 in the
  *     figure);
  *   - otherwise gets w_l.
  * For l=0 this is exactly Fig. 3a, l=1 Fig. 3b, and l=2 the second-order
  * walk of Fig. 3c (the choice depends on current and previous node via k).
  * Overlapping matches after a completed path are not tracked (a completed
  * walker restarts its progress) — see DESIGN.md §5.
  *
  * The rule takes the two facts about a move, "it extends the match" and
  * "u satisfies M_0", as given: how to establish them depends on the graph's
  * representation ([[HypothesisBias]] on the CSR, [[PhaseGraphX]] on GraphX
  * triplets).
  */
private[sampling] final case class Figure3Rule(l: Int, wh: Double, wl: Double) {
  /** Progress of a walker placed on a node. */
  def start(m0: Boolean): Int = if (m0) 1 else 0

  /** Transition weight (the paper's N_w) of a move. */
  def weight(extendsMatch: Boolean, m0: Boolean): Double = if (extendsMatch || m0) wh else wl

  /** Walker progress after the move, from progress k. A fully matched path
    * restarts (possibly overlapping at position 0).
    */
  def next(k: Int, extendsMatch: Boolean, m0: Boolean): Int =
    if (extendsMatch && k < l) k + 1 else start(m0)
}

/** The hypothesis-awareness machinery of PHASE and PHASE_opt on the CSR: the
  * two weight functions of §3.2.1, with the move's facts for [[Figure3Rule]]
  * read from a half-edge and the modifier labels.
  */
final class HypothesisBias(g: LocalGraph, h: Hypothesis, wh: Double, wl: Double) {
  private val path = h.path
  val l: Int = path.length
  val labels: Array[Array[Boolean]] = g.labels(path)
  private val rule = Figure3Rule(l, wh, wl)
  private val stepEtype: Array[Int] =
    path.steps.map(s => g.etypes.indexOf(s.etype)).toArray

  /** Walker seed weight (the paper's L_w): w_h while on a live match. */
  def seedWeight(progress: Int): Double = if (progress >= 1) wh else wl

  /** Progress of a walker freshly placed on `v`. */
  def initialProgress(v: Int): Int = rule.start(labels(0)(v))

  private def extendsMatch(k: Int, half: Int, u: Int): Boolean =
    k >= 1 && k <= l && stepEtype(k - 1) >= 0 &&
      g.halfEdgeMatches(half, path.steps(k - 1), stepEtype(k - 1)) &&
      labels(k)(u)

  /** Transition weight (the paper's N_w) for candidate u over `half`. */
  def candidateWeight(k: Int, half: Int, u: Int): Double =
    rule.weight(extendsMatch(k, half, u), labels(0)(u))

  /** Walker progress after actually moving to u over `half`. */
  def nextProgress(k: Int, half: Int, u: Int): Int =
    rule.next(k, extendsMatch(k, half, u), labels(0)(u))
}

/** The candidate set of a PHASE step: `collect` writes the candidate
  * half-edges at the chosen walker's node `v` into `out` and returns how
  * many. A node of degree d has at most `bound(d)` of them; the walk sizes
  * `out` by it.
  */
private[sampling] abstract class Candidates {
  def bound(d: Int): Int
  def collect(v: Int, picked: NodeBudget, out: Array[Int]): Int
}

/** The walker loop of PHASE (Algorithm 1), shared by PHASE_opt (Algorithm 2):
  * m walkers start on uniform seeds; each step picks a walker ∝ its L_w,
  * weighs the candidate half-edges at its node by N_w, moves it over one of
  * them drawn ∝ weight, and adds both endpoints to V_S. The two samplers
  * differ only in their [[Candidates]]. A walker with no candidate teleports
  * to a fresh uniform seed so the budget still drains; for PHASE, whose
  * candidates are all half-edges, that happens only on a node without edges.
  *
  * Budget semantics: one unit per distinct node added to V_S, matching every
  * other sampler in the framework (paper §2.3's unitary cost); S is the
  * induced subgraph on V_S.
  */
private[sampling] object PhaseWalk {
  def sample(g: LocalGraph, budget: Int, rng: Random, bias: HypothesisBias, m: Int,
      cand: Candidates): SampledGraph = {
    val b = math.min(budget, g.numNodes)
    val nWalk = math.max(1, math.min(m, b))
    val pos = Array.fill(nWalk)(uniformNode(g, rng))
    val prog = pos.map(bias.initialProgress)
    val lw = prog.map(bias.seedWeight)
    val picked = new NodeBudget(b)
    var candHalf = new Array[Int](32)
    var candW = new Array[Double](32)
    var steps = 0
    val cap = stepCap(budget)
    while (!picked.isFull && steps < cap) {
      val k = weightedIndex(lw, nWalk, rng)
      val v = pos(k)
      val need = cand.bound(g.degree(v))
      if (need > candHalf.length) {
        candHalf = new Array[Int](need)
        candW = new Array[Double](need)
      }
      val nc = cand.collect(v, picked, candHalf)
      if (nc == 0) {
        val s = uniformNode(g, rng)
        pos(k) = s
        prog(k) = bias.initialProgress(s)
        picked.add(s)
      } else {
        var i = 0
        while (i < nc) {
          candW(i) = bias.candidateWeight(prog(k), candHalf(i), g.adjNbr(candHalf(i)))
          i += 1
        }
        val half = candHalf(weightedIndex(candW, nc, rng))
        val u = g.adjNbr(half)
        picked.add(v)
        picked.add(u)
        prog(k) = bias.nextProgress(prog(k), half, u)
        pos(k) = u
      }
      lw(k) = bias.seedWeight(prog(k))
      steps += 1
    }
    SampledGraph(picked.toArray)
  }
}

/** PHASE (Algorithm 1): an m-dimensional FrontierS-style random walk whose
  * walker choice and transitions are biased by [[HypothesisBias]]. At every
  * step it weighs *all* neighbors of the chosen walker — the O(B·2|E|/|V|)
  * cost that PHASE_opt removes.
  */
final case class PhaseSampler(
    h: Hypothesis,
    m: Int = 50,
    wh: Double = 10.0,
    wl: Double = 0.1) extends Sampler {
  val name = "PHASE"

  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    PhaseWalk.sample(g, budget, rng, new HypothesisBias(g, h, wh, wl), m, new Candidates {
      def bound(d: Int): Int = d
      def collect(v: Int, picked: NodeBudget, out: Array[Int]): Int = {
        val off = g.adjOff(v)
        val d = g.degree(v)
        var i = 0
        while (i < d) { out(i) = off + i; i += 1 }
        d
      }
    })
}

/** PHASE_opt (Algorithm 2): PHASE with a smaller candidate set,
  *  - Optim 2: already-sampled nodes are removed from the candidate set
  *    (N' = N[v] − V_S — global non-backtracking), and
  *  - Optim 1: at most `n` candidates are drawn from N' before weighting,
  *    bounding per-step work by O(n) instead of O(deg) — the O(B) total
  *    complexity claimed in §3.2.2.
  * A walker whose entire neighborhood is already sampled teleports to a
  * fresh uniform seed so the budget still drains.
  */
final case class PhaseOptSampler(
    h: Hypothesis,
    m: Int = 50,
    n: Int = 30,
    wh: Double = 10.0,
    wl: Double = 0.1) extends Sampler {
  val name = "PHASEopt"

  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph =
    PhaseWalk.sample(g, budget, rng, new HypothesisBias(g, h, wh, wl), m, new Candidates {
      def bound(d: Int): Int = math.min(d, n)
      def collect(v: Int, picked: NodeBudget, out: Array[Int]): Int = {
        val d = g.degree(v)
        val off = g.adjOff(v)
        var nc = 0
        if (d <= n) {
          // Small neighborhoods: scan, applying Optim 2's visited filter.
          var i = 0
          while (i < d) {
            if (!picked.contains(g.adjNbr(off + i))) { out(nc) = off + i; nc += 1 }
            i += 1
          }
        } else {
          // Hubs: O(n) random probes with rejection of visited nodes — never
          // scans the full neighbor list (this is what wins Table 2).
          var tries = 0
          while (nc < n && tries < 3 * n) {
            val half = off + rng.nextInt(d)
            if (!picked.contains(g.adjNbr(half))) { out(nc) = half; nc += 1 }
            tries += 1
          }
        }
        nc
      }
    })
}
