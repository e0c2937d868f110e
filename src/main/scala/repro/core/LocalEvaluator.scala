package repro.core

/** Outcome of evaluating a hypothesis on a graph (full G or sampled S).
  *
  * `estimate` is the aggregated value (None when no relevant path carries a
  * usable f value — e.g. the sampler missed every relevant path, which the
  * paper's accuracy metric counts as a miss); `nRelevant` counts relevant
  * path instances; `values` are their f values as (value, multiplicity)
  * pairs, the t-test's inputs.
  */
final case class EvalResult(
    estimate: Option[Double],
    nRelevant: Long,
    decision: Option[Boolean],
    values: Values)

/** The f values of relevant paths as (value, multiplicity) pairs: pair i
  * stands for `mult(i)` ≥ 1 paths whose target is `value(i)`. Enumerated
  * paths come one pair each, multiplicity 1, in path order; counted
  * two-step paths come one pair per entry or middle node of the extraction
  * ([[LocalEvaluator]]). The aggregates and [[Stats.tTest]] read them as
  * the `count` values they stand for.
  */
final class Values private (vs: Array[Double], ms: Array[Long]) {
  /** The number of pairs. */
  def size: Int = vs.length
  def isEmpty: Boolean = vs.length == 0
  def nonEmpty: Boolean = vs.length > 0
  def value(i: Int): Double = vs(i)
  def mult(i: Int): Long = if (ms == null) 1L else ms(i)

  /** The number of values: the multiplicities' sum. */
  val count: Long =
    if (ms == null) vs.length
    else {
      var n = 0L
      var i = 0
      while (i < ms.length) { require(ms(i) >= 1, s"multiplicity ${ms(i)}"); n += ms(i); i += 1 }
      n
    }

  /** Σ mult(i)·value(i), added left to right from pair 0; 0.0 when empty.
    * With every multiplicity 1 it is [[Stats.sum]] of the values, bit for bit.
    */
  def sum: Double =
    if (ms == null || vs.isEmpty) Stats.sum(vs)
    else {
      var s = ms(0) * vs(0)
      var i = 1
      while (i < vs.length) { s += ms(i) * vs(i); i += 1 }
      s
    }

  def min: Double = vs.min
  def max: Double = vs.max
}

object Values {
  val empty: Values = new Values(Array.emptyDoubleArray, null)

  /** Each value once. */
  def apply(values: Array[Double]): Values = new Values(values, null)

  /** `values(i)` `mults(i)` times, every multiplicity at least 1. */
  def apply(values: Array[Double], mults: Array[Long]): Values = {
    require(values.length == mults.length, s"${values.length} values but ${mults.length} multiplicities")
    new Values(values, mults)
  }
}

/** Driver-side hypothesis evaluator: finds the relevant path instances on
  * a sub-CSR built for the call and aggregates `f_P`.
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
  * for H(G) (§7 of DESIGN.md): one bit test per scanned half-edge, and a
  * read of its step code only behind a usable head. Two-step paths, every
  * path hypothesis of the catalog, are counted per middle node in
  * O(entries of that adjacency), whatever their number, and their values
  * come as (value, multiplicity) pairs. Node, edge and longer paths
  * (`Catalog.dblpLongPaths`) are enumerated by a plain typed DFS, one value
  * each in the order of a full scan: start nodes in increasing index order,
  * half-edges in CSR order, on G and on S alike.
  * `Framework.runOnce` hands the Avg estimate to the t-test as its mean, so
  * the t-test makes one pass over the pairs.
  */
object LocalEvaluator {

  /** All f values over relevant path instances, plus the instance count. */
  def extract(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph] = None): (Values, Long) = {
    val stepType = h.path.steps.map(s => g.etypes.indexOf(s.etype)).toArray
    // An edge type absent from the graph ⇒ zero relevant paths.
    if (stepType.exists(_ < 0)) (Values.empty, 0L) else new Extraction(g, h, stepType, sample).run()
  }

  /** Apply the hypothesis aggregate to extracted values. */
  def aggregate(h: Hypothesis, values: Values, nPaths: Long): Option[Double] = h.agg match {
    case Agg.Count => Some(nPaths.toDouble)
    case _ if values.isEmpty => None
    case Agg.Avg => Some(values.sum / values.count)
    case Agg.Sum => Some(values.sum)
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

/** One extraction of `h` over the induced sub-CSR of S (S = V without a
  * sample). Row r is node `nodes(r)`, S's in-range nodes in increasing
  * order; on G, row v is node v. A row gets as entries k in
  * [off(r), off(r+1)) its half-edges `halves(k)` to nodes of S (and in S's
  * explicit edge set, if any), in CSR order, that lead to row `next(k)`
  * and realize a step of the path; bit p of `usable(k)` says which:
  *  - l = 2, counted ([[count]]): bit 0 is step 0 taken backwards, into
  *    the row from a node that satisfies M_0, and bit 1 is step 1 to a
  *    node that satisfies M_2. Only rows that satisfy M_1, the middle
  *    nodes, get entries.
  *  - other lengths, enumerated ([[Dfs]]): bit p is step p, p < l, from a
  *    row that satisfies M_p to a node that satisfies M_{p+1}. The DFS
  *    starts at every row, so only bit 0's tail test keeps it to M_0.
  */
private final class Extraction(g: LocalGraph, h: Hypothesis, stepType: Array[Int],
    sample: Option[SampledGraph]) {
  private val l = h.path.length
  private val masks = g.labels(h.path)
  private val counting = l == 2
  private val (nodes, off, halves, next, usable) = induced()
  private val rows = nodes.length

  private val (nodePos, edgeStep, attr) = h.target match {
    case NodeAttrTarget(p, a) => (p, -1, a)
    case EdgeAttrTarget(s, a) => (-1, s, a)
    case UnitTarget           => (-1, -1, "")
  }
  private val unit = nodePos < 0 && edgeStep < 0
  // The target attribute's double column; null for a unit target, and for
  // an attribute that is no double column, which gives no values.
  private val column = if (unit) null else (if (nodePos >= 0) g.nodeCols(attr) else g.edgeCols(attr)) match {
    case Some(c: NumColumn) => c
    case _                  => null
  }

  def run(): (Values, Long) = if (counting) count() else new Dfs().run()

  private def induced(): (Array[Int], Array[Int], Array[Int], Array[Int], Array[Int]) = {
    require(l < 32, s"paths of $l steps are too long")
    // Entry bit p: a half-edge that realizes step(p), from a row in
    // tail(p)'s mask to a node in head(p)'s.
    val (tail, head, step) =
      if (counting) {
        val s0 = h.path.steps(0)
        (Array(masks(1), masks(1)), Array(masks(0), masks(2)), Array(s0.copy(reversed = !s0.reversed), h.path.steps(1)))
      } else (masks.take(l), masks.drop(1), h.path.steps.toArray)
    val bits = step.length
    // On S, S as one bit per node of G and how many of its nodes lie below
    // each word: node u of S is row rank(u). On G, row u is node u.
    val (words, below) = sample.fold[(Array[Long], Array[Int])]((null, null)) { s =>
      val words = new Array[Long]((g.numNodes >> 6) + 1)
      val below = new Array[Int](words.length + 1)
      var i = 0
      while (i < s.nodeIdx.length) { val v = s.nodeIdx(i); if (v >= 0 && v < g.numNodes) words(v >> 6) |= 1L << v; i += 1 }
      i = 0
      while (i < words.length) { below(i + 1) = below(i) + java.lang.Long.bitCount(words(i)); i += 1 }
      (words, below)
    }
    def rank(u: Int): Int = below(u >> 6) + java.lang.Long.bitCount(words(u >> 6) & ((1L << u) - 1))
    val nodes = sample.fold(Array.range(0, g.numNodes)) { s =>
      val nodes = new Array[Int](below(words.length))
      var i = 0
      while (i < s.nodeIdx.length) { val v = s.nodeIdx(i); if (v >= 0 && v < g.numNodes) nodes(rank(v)) = v; i += 1 }
      nodes
    }
    val edges = sample.flatMap(_.edgeIdx).map { es =>
      val b = new java.util.BitSet(); es.foreach(e => if (e >= 0) b.set(e)); b
    }.orNull
    // heads(p): the nodes of S in head(p)'s mask, one bit per node of G, and
    // `any` their union: a half-edge to a node outside `any` realizes no
    // step, and its step code is not read. code(p): the step code of bit p.
    val heads = Array.fill(bits)(new Array[Long]((g.numNodes >> 6) + 1))
    val any = if (bits == 0) null else new Array[Long]((g.numNodes >> 6) + 1)
    val code = Array.tabulate(bits)(p => LocalGraph.stepCode(step(p), stepType(p)))
    if (bits > 0) {
      var i = 0
      while (i < nodes.length) {
        val v = nodes(i)
        var p = 0
        while (p < bits) { if (head(p)(v)) { heads(p)(v >> 6) |= 1L << v; any(v >> 6) |= 1L << v }; p += 1 }
        i += 1
      }
    }
    // Bit p set: node v is in tail(p)'s mask, so it may start a bit-p entry.
    def tails(v: Int): Int = { var set, p = 0; while (p < bits) { if (tail(p)(v)) set |= 1 << p; p += 1 }; set }
    val off = new Array[Int](nodes.length + 1)
    var k, r = 0
    // Room for one entry per node of S in each row that may have entries,
    // grown on demand past that (multi-edges): a hub of S scans its whole
    // adjacency but keeps few entries, and on G this is the exact bound.
    while (r < nodes.length) { if (tails(nodes(r)) != 0) k += math.min(g.degree(nodes(r)), nodes.length); r += 1 }
    var halves, next, usable = new Array[Int](math.max(k, 16))
    k = 0; r = 0
    while (r < nodes.length) {
      val from = tails(nodes(r))
      var half = if (from == 0) g.adjOff(nodes(r) + 1) else g.adjOff(nodes(r))
      while (half < g.adjOff(nodes(r) + 1)) {
        val u = g.adjNbr(half)
        if ((any(u >> 6) & 1L << u) != 0) {
          val c = g.adjCode(half)
          var set, p = 0
          while (p < bits) {
            if ((from & 1 << p) != 0 && (heads(p)(u >> 6) & 1L << u) != 0 && c == code(p)) set |= 1 << p
            p += 1
          }
          if (set != 0 && (edges == null || edges.get(g.adjEdge(half)))) {
            if (k == halves.length) {
              halves = java.util.Arrays.copyOf(halves, 2 * k)
              next = java.util.Arrays.copyOf(next, 2 * k)
              usable = java.util.Arrays.copyOf(usable, 2 * k)
            }
            halves(k) = half; next(k) = if (words == null) u else rank(u); usable(k) = set; k += 1
          }
        }
        half += 1
      }
      r += 1
      off(r) = k
    }
    (nodes, off, halves, next, usable)
  }

  /** Two-step paths a → b → c, with a, b and c distinct, counted at their
    * middle row b. With n entries of b on one side (`mark`), not back to b,
    * an entry of the other side (`emit`) to row c ≠ b carries the
    * n − (marked entries to or from c) paths through it. The emitting side
    * holds the target: bit 0 for a target at position 0 or step 0, whose
    * paths are those of the matching first step, bit 1 otherwise. An entry
    * carries its head's value (node target) or its edge's (edge target); a
    * middle-node or unit target carries, once per middle row, the sum over
    * its entries. O(entries): `seen` counts marked entries per row and is
    * reset after each middle row.
    */
  private def count(): (Values, Long) = {
    val perRow = nodePos == 1 || unit
    val (mark, emit) = if (nodePos == 0 || edgeStep == 0) (2, 1) else (1, 2)
    val seen = new Array[Int](rows)
    val room = if (column == null && !unit) 0 else if (perRow) rows else off(rows)
    val vs = new Array[Double](room)
    val ms = new Array[Long](room)
    var pairs = 0
    var paths = 0L
    // `m` paths whose target is node or edge i's cell, if it has one.
    def add(i: Int, m: Long): Unit =
      if (column.present.get(i)) { vs(pairs) = column.values(i); ms(pairs) = m; pairs += 1 }
    var b = 0
    while (b < rows) {
      val first = off(b)
      val last = off(b + 1)
      var n = 0
      var k = first
      while (k < last) { if ((usable(k) & mark) != 0 && next(k) != b) { seen(next(k)) += 1; n += 1 }; k += 1 }
      if (n > 0) {
        var total = 0L
        k = first
        while (k < last) {
          val c = next(k)
          if ((usable(k) & emit) != 0 && c != b && n > seen(c)) {
            total += n - seen(c)
            if (!perRow && column != null) add(if (nodePos >= 0) nodes(c) else g.adjEdge(halves(k)), n - seen(c))
          }
          k += 1
        }
        if (total > 0 && unit) { vs(pairs) = 1.0; ms(pairs) = total; pairs += 1 }
        else if (total > 0 && perRow && column != null) add(nodes(b), total)
        paths += total
        k = first
        while (k < last) { seen(next(k)) = 0; k += 1 }
      }
      b += 1
    }
    val values =
      if (pairs == 0) Values.empty
      else if (pairs == room) Values(vs, ms)
      else Values(java.util.Arrays.copyOf(vs, pairs), java.util.Arrays.copyOf(ms, pairs))
    (values, paths)
  }

  /** The DFS for l ≠ 2, from every row in order (at l = 0, each row in M_0
    * is a path): positions 0 to l−2 recurse, the last step is one flat
    * loop, and a per-row flag marks the chain, so paths stay simple. Each
    * path's value is read off the target column into a doubling buffer.
    */
  private final class Dfs {
    private val chainRow = new Array[Int](l + 1)
    private val chainEntry = new Array[Int](l)
    private val onChain = new Array[Boolean](rows)
    // Room for every path at l ≤ 1, one per row or per entry; doubled past it.
    private var values = new Array[Double](math.max(16, if (l == 0) rows else off(rows)))
    private var nValues = 0
    private var nPaths = 0L

    def run(): (Values, Long) = {
      var r = 0
      while (r < rows) {
        chainRow(0) = r
        onChain(r) = true
        if (l > 0) dfs(0) else if (masks(0)(nodes(r))) { nPaths += 1; take(nodes(r)) }
        onChain(r) = false
        r += 1
      }
      (Values(java.util.Arrays.copyOf(values, nValues)), nPaths)
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
      * realizes it and leads off the chain completes a path, whose target
      * is the head's node, the entry's edge, or fixed by the chain.
      */
    private def lastStep(): Unit = {
      val bit = 1 << (l - 1)
      val fixed =
        if (nodePos >= 0 && nodePos < l) nodes(chainRow(nodePos))
        else if (edgeStep >= 0 && edgeStep < l - 1) g.adjEdge(halves(chainEntry(edgeStep))) else -1
      var k = off(chainRow(l - 1))
      val last = off(chainRow(l - 1) + 1)
      while (k < last) {
        val r = next(k)
        if ((usable(k) & bit) != 0 && !onChain(r)) {
          nPaths += 1
          take(if (nodePos == l) nodes(r) else if (edgeStep == l - 1) g.adjEdge(halves(k)) else fixed)
        }
        k += 1
      }
    }

    /** A path's value: 1.0 for a unit target, else cell `i` of the target
      * column, if it has one.
      */
    private def take(i: Int): Unit =
      if (unit) add(1.0) else if (column != null && column.present.get(i)) add(column.values(i))

    private def add(v: Double): Unit = {
      if (nValues == values.length) values = java.util.Arrays.copyOf(values, 2 * nValues)
      values(nValues) = v; nValues += 1
    }
  }
}
