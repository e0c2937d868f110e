package repro.core

import java.util.concurrent.{Callable, ExecutionException, ForkJoinPool}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Outcome of evaluating a hypothesis on a graph (full G or sampled S).
  *
  * `estimate` is the aggregated value (None when no relevant path carries a
  * usable f value — e.g. the sampler missed every relevant path, which the
  * paper's accuracy metric counts as a miss); `nRelevant` counts relevant
  * path instances; `values` are the per-path f values (the t-test inputs).
  */
final case class EvalResult(
    estimate: Option[Double],
    nRelevant: Long,
    decision: Option[Boolean],
    values: Array[Double])

/** Driver-side hypothesis evaluator: enumerates relevant path instances by
  * typed DFS and aggregates `f_P`.
  *
  * Semantics (verified equal to [[SparkEvaluator]] in tests):
  *  - a path instance binds one node per position; node i must satisfy M_i;
  *  - step j must use an edge of the declared type in the declared direction;
  *  - instances are simple (pairwise-distinct nodes), so a co-authorship
  *    path author→paper→author never degenerates to the same author twice;
  *  - paths whose target attribute is absent/non-numeric are counted as
  *    relevant but contribute no value.
  *
  * Cost: one adjacency is built per call, over S's nodes, or over all of V
  * for H(G). A node gets only its half-edges that realize a step from it, so
  * the build costs O(Σ deg v over the nodes that satisfy some M_p, p < l)
  * plus O(|V|/64) for S's node bitmap, and the DFS, whose last step is one
  * flat loop, costs a few ns per path. Start nodes come in increasing index
  * order and half-edges in CSR order, on G and on S alike, so `values` comes
  * out in the same order. From [[Extraction.ParallelWalks]] walks on, the
  * DFS runs as contiguous ranges of start units on every core, and the
  * ranges' values are joined in range order: the same array, bit for bit.
  * The Avg aggregate and the t-test's variance then make one pass each over
  * the values: `Framework.runOnce` hands the Avg estimate to the t-test as
  * its mean.
  */
object LocalEvaluator {

  /** All f values over relevant path instances, plus the instance count. */
  def extract(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph] = None): (Array[Double], Long) =
    extraction(g, h, sample).fold((Array.emptyDoubleArray, 0L))(_.run())

  /** The walks (simple or not) from which `extract` enumerates the paths;
    * from [[Extraction.ParallelWalks]] on, it runs on several cores.
    */
  private[core] def walkBound(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph] = None): Long =
    extraction(g, h, sample).fold(0L)(_.walkBound)

  private def extraction(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph]): Option[Extraction] = {
    val stepType = h.path.steps.map(s => g.etypes.indexOf(s.etype)).toArray
    // An edge type absent from the graph ⇒ zero relevant paths.
    if (stepType.exists(_ < 0)) None else Some(new Extraction(g, h, stepType, sample))
  }

  /** Apply the hypothesis aggregate to extracted values. */
  def aggregate(h: Hypothesis, values: Array[Double], nPaths: Long): Option[Double] = h.agg match {
    case Agg.Count => Some(nPaths.toDouble)
    case _ if values.isEmpty => None
    case Agg.Avg => Some(Stats.sum(values) / values.length)
    case Agg.Sum => Some(Stats.sum(values))
    case Agg.Min => Some(values.min)
    case Agg.Max => Some(values.max)
  }

  /** Full evaluation: extraction + aggregation + decision. */
  def evaluate(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph] = None): EvalResult = {
    val (values, nPaths) = extract(g, h, sample)
    val est = aggregate(h, values, nPaths)
    EvalResult(est, nPaths, est.map(h.decide), values)
  }
}

/** One DFS for `h` over the induced sub-CSR of S (S = V without a sample).
  * Row r is node `nodes(r)`, S's in-range nodes in increasing order. A node
  * that satisfies some M_p, p < l, gets as entries k in [off(r), off(r+1))
  * its half-edges `halves(k)` to nodes of S (and in S's explicit edge set,
  * if any), in CSR order, that realize such a step p: declared type and
  * direction, and a head row `next(k)` that satisfies M_{p+1}. Bit p of
  * `usable(k)` says which.
  *
  * The DFS is split into units: for l ≥ 2 an entry of a start row (the
  * first step taken), otherwise a start row. Taken in order, the units give
  * the paths in the order of a full scan. [[run]] cuts them into contiguous
  * ranges, runs each range on its own [[Cursor]] and concatenates the
  * ranges' values in range order, so the result is the same however the
  * units were cut and wherever the ranges ran.
  */
private final class Extraction(g: LocalGraph, h: Hypothesis, stepType: Array[Int],
    sample: Option[SampledGraph]) {
  import Extraction._
  private val l = h.path.length
  private val masks = g.labels(h.path)
  private val (nodes, off, halves, next, usable) = induced()
  private val rows = nodes.length
  // walk(p)(r): the walks (simple or not) of steps p to l-1 from row r, at
  // most 2^24. A row or entry with no walk beyond it is on no path, and the
  // walks from a range's units, no fewer than their paths, size its values.
  private val walk = walks()
  /** The walks from every start row: a bound on the paths, and the DFS's work. */
  val walkBound: Long = { var n = 0L; var r = 0; while (r < rows) { n += walk(0)(r); r += 1 }; n }
  private val units = if (l >= 2) off(rows) else rows

  private val (nodePos, edgeStep, attr) = h.target match {
    case NodeAttrTarget(p, a) => (p, -1, a)
    case EdgeAttrTarget(s, a) => (-1, s, a)
    case UnitTarget           => (-1, -1, "")
  }
  // The numeric target of each row (node target) or entry (edge target) on
  // some path, where `has` is set; a unit target is slot 0, 1.0. A target
  // attribute that is no double column gives no values.
  private val slots = if (nodePos >= 0) rows else if (edgeStep >= 0) off(rows) else 1
  private val target = new Array[Double](slots)
  private val has = new Array[Boolean](slots)
  locally {
    val column = (if (nodePos >= 0) g.nodeCols(attr) else g.edgeCols(attr)) match {
      case Some(c: NumColumn) => c
      case _                  => null
    }
    // Slot k takes the column's value at row i, if there is one.
    def fill(k: Int, i: Int): Unit = if (column.present.get(i)) { target(k) = column.values(i); has(k) = true }
    var k = 0
    while (k < slots) {
      if (nodePos >= 0) { if (column != null && walk(nodePos)(k) > 0) fill(k, nodes(k)) }
      else if (edgeStep < 0) { target(k) = 1.0; has(k) = true }
      else if (column != null && (usable(k) & 1 << edgeStep) != 0 && walk(edgeStep + 1)(next(k)) > 0)
        fill(k, g.adjEdge(halves(k)))
      k += 1
    }
  }

  private def induced(): (Array[Int], Array[Int], Array[Int], Array[Int], Array[Int]) = {
    require(l < 32, s"paths of $l steps are too long")
    val steps = h.path.steps.toArray
    // S as one bit per node of G, and how many of its nodes lie below each
    // word: node u of S is row rank(u).
    val members = sample.fold(Array.range(0, g.numNodes))(_.nodeIdx)
    val words = new Array[Long]((g.numNodes >> 6) + 1)
    val below = new Array[Int](words.length + 1)
    def rank(u: Int): Int = below(u >> 6) + java.lang.Long.bitCount(words(u >> 6) & ((1L << u) - 1))
    var i, k, r = 0
    while (i < members.length) { val v = members(i); if (v >= 0 && v < g.numNodes) words(v >> 6) |= 1L << v; i += 1 }
    while (r < words.length) { below(r + 1) = below(r) + java.lang.Long.bitCount(words(r)); r += 1 }
    val nodes = new Array[Int](below(words.length))
    i = 0
    while (i < members.length) { val v = members(i); if (v >= 0 && v < g.numNodes) nodes(rank(v)) = v; i += 1 }
    val edges = sample.flatMap(_.edgeIdx).map { es =>
      val b = new java.util.BitSet(); es.foreach(e => if (e >= 0) b.set(e)); b
    }.orNull
    // Bit p set: node v satisfies M_p, p < l, so it may start step p.
    def tails(v: Int): Int = { var bits, p = 0; while (p < l) { if (masks(p)(v)) bits |= 1 << p; p += 1 }; bits }
    val off = new Array[Int](nodes.length + 1)
    // Room for one entry per node of S in each row that may start a step,
    // grown on demand past that (multi-edges): a hub of S scans its whole
    // adjacency but keeps few entries, and on G this is the exact bound.
    r = 0
    while (r < nodes.length) { if (tails(nodes(r)) != 0) k += math.min(g.degree(nodes(r)), nodes.length); r += 1 }
    var halves, next, usable = new Array[Int](math.max(k, 16))
    k = 0; r = 0
    while (r < nodes.length) {
      val from = tails(nodes(r))
      var half = if (from == 0) g.adjOff(nodes(r) + 1) else g.adjOff(nodes(r))
      while (half < g.adjOff(nodes(r) + 1)) {
        val u = g.adjNbr(half)
        if ((words(u >> 6) & 1L << u) != 0 && (edges == null || edges.get(g.adjEdge(half)))) {
          var bits, p = 0
          while (p < l) {
            if ((from & 1 << p) != 0 && g.halfEdgeMatches(half, steps(p), stepType(p)) && masks(p + 1)(u)) bits |= 1 << p
            p += 1
          }
          if (bits != 0) {
            if (k == halves.length) {
              halves = java.util.Arrays.copyOf(halves, 2 * k)
              next = java.util.Arrays.copyOf(next, 2 * k)
              usable = java.util.Arrays.copyOf(usable, 2 * k)
            }
            halves(k) = half; next(k) = rank(u); usable(k) = bits; k += 1
          }
        }
        half += 1
      }
      r += 1
      off(r) = k
    }
    (nodes, off, halves, next, usable)
  }

  private def walks(): Array[Array[Long]] = {
    val w = Array.fill(l + 1)(new Array[Long](rows))
    var p = l
    var r = 0
    while (r < rows) { if (masks(l)(nodes(r))) w(l)(r) = 1; r += 1 }
    while (p > 0) {
      p -= 1; r = 0
      while (r < rows) {
        var k = off(r)
        while (k < off(r + 1)) { if ((usable(k) & 1 << p) != 0) w(p)(r) = math.min(1L << 24, w(p)(r) + w(p + 1)(next(k))); k += 1 }
        r += 1
      }
    }
    w
  }

  /** The walks beyond unit u, a start row for l < 2 and an entry of start
    * row r otherwise. An entry back to r itself starts no path: paths are
    * simple.
    */
  private def unitWalks(r: Int, u: Int): Long =
    if (l < 2) walk(0)(u)
    else if ((usable(u) & 1) != 0 && next(u) != r) walk(1)(next(u))
    else 0L

  def run(): (Array[Double], Long) = {
    val out = new Array[Double](math.min(walkBound, 1L << 24).toInt)
    val done =
      if (walkBound < ParallelWalks || cores == 1) Seq(new Cursor(0, 0, units, out, 0, out.length).call())
      else try pool.invokeAll(ranges(RangesPerCore * cores, out).asJava).asScala.toSeq.map(_.get)
        catch { case e: ExecutionException => throw e.getCause }
    // Each range's values move down to follow the previous range's, in range
    // order; only a range that outgrew its slice of `out` (past 2^24 walks)
    // wrote a buffer of its own.
    val all = if (done.forall(_.values eq out)) out else new Array[Double](done.map(_.nValues).sum)
    var at = 0
    done.foreach { c =>
      if ((c.values ne all) || c.base != at) System.arraycopy(c.values, c.base, all, at, c.nValues)
      at += c.nValues
    }
    (if (at == all.length) all else java.util.Arrays.copyOf(all, at), done.map(_.nPaths).sum)
  }

  /** The units cut into at most n contiguous ranges of about walkBound / n
    * walks each, the last range taking the rest. Each range gets the slice
    * of `out` that its walks bound, as far as `out` reaches.
    */
  private def ranges(n: Int, out: Array[Double]): Seq[Cursor] = {
    val cursors = ArrayBuffer.empty[Cursor]
    var r, u, from, fromRow = 0
    var start, walks = 0L
    while (u < units) {
      if (l >= 2) { while (off(r + 1) <= u) r += 1 } else r = u
      walks += unitWalks(r, u)
      u += 1
      if (walks * n >= walkBound || u == units) {
        cursors += new Cursor(fromRow, from, u, out, math.min(start, out.length).toInt,
          math.min(start + walks, out.length).toInt)
        from = u; fromRow = r; start += walks; walks = 0
      }
    }
    cursors.toSeq
  }

  /** The DFS over units [from, until), the first of them in start row
    * `fromRow` or later. Its values go to `values(base)` on, up to `limit`,
    * and to a buffer of its own past that. It has its own chain and writes
    * only its own slice, and it reads the shared sub-CSR, walk table and
    * targets, so cursors over different ranges can run at once.
    */
  private final class Cursor(fromRow: Int, from: Int, until: Int,
      var values: Array[Double], var base: Int, limit: Int) extends Callable[Cursor] {
    private val chainRow = new Array[Int](l + 1)
    private val chainEntry = new Array[Int](math.max(l, 1))
    private val onChain = new Array[Boolean](rows)
    private var end = limit
    var nValues = 0
    var nPaths = 0L

    def call(): Cursor = {
      var r = fromRow
      var u = from
      while (u < until) {
        if (l >= 2) { while (off(r + 1) <= u) r += 1 } else r = u
        if (unitWalks(r, u) > 0) {
          chainRow(0) = r
          onChain(r) = true
          if (l >= 2) {
            val head = next(u)
            chainEntry(0) = u
            chainRow(1) = head
            onChain(head) = true; dfs(1); onChain(head) = false
          } else if (l == 1) lastStep()
          else { // l = 0: the start node alone is the path
            val t = if (nodePos == 0) r else 0
            nPaths += 1
            if (has(t)) { grow(1); values(base + nValues) = target(t); nValues += 1 }
          }
          onChain(r) = false
        }
        u += 1
      }
      this
    }

    /** Room for `extra` more values; needed only past 2^24 walks. */
    private def grow(extra: Int): Unit =
      if (end - base - nValues < extra) {
        val own = new Array[Double](math.max(2 * (end - base), nValues + extra))
        System.arraycopy(values, base, own, 0, nValues)
        values = own; base = 0; end = own.length
      }

    private def dfs(pos: Int): Unit =
      if (pos == l - 1) lastStep()
      else {
        var k = off(chainRow(pos))
        while (k < off(chainRow(pos) + 1)) {
          val r = next(k)
          if ((usable(k) & 1 << pos) != 0 && !onChain(r)) { // paths are simple
            chainRow(pos + 1) = r
            chainEntry(pos) = k
            onChain(r) = true; dfs(pos + 1); onChain(r) = false
          }
          k += 1
        }
      }

    /** Step l-1, one flat loop: each entry of the chain's last row that
      * realizes it and leads off the chain completes a path, whose target is
      * the head's row, the entry, or fixed by the chain so far.
      */
    private def lastStep(): Unit = {
      val bit = 1 << (l - 1)
      val perRow = nodePos == l
      val perEntry = edgeStep == l - 1
      val fixed = if (nodePos >= 0 && !perRow) chainRow(nodePos) else if (edgeStep >= 0 && !perEntry) chainEntry(edgeStep) else 0
      var k = off(chainRow(l - 1))
      val last = off(chainRow(l - 1) + 1)
      grow(last - k)
      val vs = values
      val ns = next
      val us = usable
      val on = onChain
      val hs = has
      val ts = target
      var at = base + nValues
      var np = nPaths
      while (k < last) {
        val r = ns(k)
        if ((us(k) & bit) != 0 && !on(r)) {
          np += 1
          val t = if (perRow) r else if (perEntry) k else fixed
          if (hs(t)) { vs(at) = ts(t); at += 1 }
        }
        k += 1
      }
      nValues = at - base
      nPaths = np
    }
  }
}

private object Extraction {

  /** From this many walks on, an extraction splits its units into ranges
    * and runs them on [[pool]]; below it, or with one core, one cursor runs
    * every unit on the calling thread. Measured on a 4-core machine over
    * PHASE_opt samples of the 18 edge and path hypotheses at scale 4 (budgets
    * ¼ to 2× the scale-1 ones), whole extractions, parallel against one
    * cursor: below 2^15 walks the ranges took 1.03–1.5× as long (handing
    * them to the pool outweighs the DFS), from 2^15 to 2^16 0.96×, from 2^16
    * to 2^17 0.91×, and 0.6–0.8× past 2^17.
    */
  val ParallelWalks: Long = 1L << 16

  /** Ranges per core. Walks only approximate a unit's cost, so a few ranges
    * per core let the pool even out the load.
    */
  val RangesPerCore = 4

  /** The driver's cores, read once: a read of `availableProcessors` costs
    * more than a small extraction (with one read per call, extractions of
    * the node hypotheses on grid samples took 1.9× as long).
    */
  val cores: Int = Runtime.getRuntime.availableProcessors

  /** One worker per core, made on the first parallel extraction. Its
    * workers are daemon threads that retire when idle and are restarted on
    * demand, so the pool lives as long as the JVM and never keeps it alive.
    */
  lazy val pool = new ForkJoinPool(cores)
}
