package repro.core

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
  * Cost: on G the DFS walks the graph's own CSR, O(|E| + paths). On S it
  * walks S's induced sub-CSR, O(Σ deg v over the v ∈ S that satisfy some
  * M_p with p < l, + paths), whatever |V| is. Either way start nodes come in
  * increasing index order and half-edges in CSR order, so `values` comes out
  * in the same order.
  */
object LocalEvaluator {

  /** All f values over relevant path instances, plus the instance count. */
  def extract(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph] = None): (Array[Double], Long) = {
    val stepType = h.path.steps.map(s => g.etypes.indexOf(s.etype)).toArray
    // An edge type absent from the graph ⇒ zero relevant paths.
    if (stepType.exists(_ < 0)) (Array.empty, 0L) else new Extraction(g, h, stepType, sample).run()
  }

  /** Apply the hypothesis aggregate to extracted values. */
  def aggregate(h: Hypothesis, values: Array[Double], nPaths: Long): Option[Double] = h.agg match {
    case Agg.Count => Some(nPaths.toDouble)
    case _ if values.isEmpty => None
    case Agg.Avg => Some(Stats.sumOf(values.length)(values(_)) / values.length)
    case Agg.Sum => Some(Stats.sumOf(values.length)(values(_)))
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

/** The adjacency one extraction walks. Row r stands for node `node(r)`; its
  * entries k in [off(r), off(r+1)) are half-edges `half(k)` of G, in CSR
  * order, each leading to row `next(k)`. Bit p of `usable(k)` says whether
  * entry k realizes step p. Over G, rows and entries are the CSR's own, and
  * `nodes`, `halves` (the identity) and `usable` (checked on the fly) are null.
  */
private final class Adjacency(val nodes: Array[Int], val off: Array[Int], halves: Array[Int],
    val next: Array[Int], val usable: Array[Int]) {
  def node(r: Int): Int = if (nodes == null) r else nodes(r)
  def half(k: Int): Int = if (halves == null) k else halves(k)
}

/** One DFS for `h` over G, or over S's induced sub-CSR. The target
  * attribute is read from its `Map` the first time a completed path needs
  * it, then kept per row (node targets) or per entry (edge targets).
  */
private final class Extraction(g: LocalGraph, h: Hypothesis, stepType: Array[Int],
    sample: Option[SampledGraph]) {
  private val l = h.path.length
  private val masks = g.labels(h.path)
  private val steps = h.path.steps.toArray
  private val adj = sample.fold(new Adjacency(null, g.adjOff, null, g.adjNbr, null))(induced)
  private val rows = if (adj.nodes == null) g.numNodes else adj.nodes.length
  private val chainRow = new Array[Int](l + 1)
  private val chainEntry = new Array[Int](math.max(l, 1))
  private var values = new Array[Double](16)
  private var nValues = 0
  private var nPaths = 0L

  private val (nodePos, edgeStep, attr) = h.target match {
    case NodeAttrTarget(p, a) => (p, -1, a)
    case EdgeAttrTarget(s, a) => (-1, s, a)
    case UnitTarget           => (-1, -1, "")
  }
  // Per row or entry: 0 = not read yet, 1 = absent or non-numeric, 2 = in `cached`.
  private val slots = if (nodePos >= 0) rows else if (edgeStep >= 0) adj.off(rows) else 0
  private val state = new Array[Byte](slots)
  private val cached = new Array[Double](slots)

  /** Half-edge `half`, leaving a node that satisfies M_p, realizes step p:
    * declared type and direction, and its head satisfies M_{p+1}.
    */
  private def realizes(p: Int, half: Int): Boolean =
    g.halfEdgeMatches(half, steps(p), stepType(p)) && masks(p + 1)(g.adjNbr(half))

  /** S's induced sub-CSR. Rows are S's distinct in-range node indices in
    * increasing order. A node that satisfies some M_p, p < l, gets as
    * entries its half-edges to nodes of S (and in S's explicit edge set, if
    * it has one) that realize such a step p; other nodes get none.
    */
  private def induced(s: SampledGraph): Adjacency = {
    require(l < 32, s"paths of $l steps are too long")
    val inS = new java.util.BitSet()
    s.nodeIdx.foreach(v => if (v >= 0 && v < g.numNodes) inS.set(v))
    val nodes = inS.stream().toArray
    val edges = s.edgeIdx.map { es =>
      val b = new java.util.BitSet(); es.foreach(e => if (e >= 0) b.set(e)); b
    }.orNull
    // Bit p set: node v satisfies M_p, p < l, so it may start step p.
    def tails(v: Int): Int = { var bits, p = 0; while (p < l) { if (masks(p)(v)) bits |= 1 << p; p += 1 }; bits }
    var cap = 0
    for (v <- nodes if tails(v) != 0) cap += g.degree(v)
    val off = new Array[Int](nodes.length + 1)
    val halves, next, usable = new Array[Int](cap)
    var k = 0
    for (r <- nodes.indices) {
      val v = nodes(r)
      val from = tails(v)
      var half = if (from == 0) g.adjOff(v + 1) else g.adjOff(v)
      while (half < g.adjOff(v + 1)) {
        val u = g.adjNbr(half)
        if (inS.get(u) && (edges == null || edges.get(g.adjEdge(half)))) {
          var bits, p = 0
          while (p < l) { if ((from & 1 << p) != 0 && realizes(p, half)) bits |= 1 << p; p += 1 }
          if (bits != 0) {
            halves(k) = half; next(k) = java.util.Arrays.binarySearch(nodes, u); usable(k) = bits
            k += 1
          }
        }
        half += 1
      }
      off(r + 1) = k
    }
    new Adjacency(nodes, off, halves, next, usable)
  }

  def run(): (Array[Double], Long) = {
    for (r <- 0 until rows) if (masks(0)(adj.node(r))) { chainRow(0) = r; dfs(0) }
    (java.util.Arrays.copyOf(values, nValues), nPaths)
  }

  private def dfs(pos: Int): Unit =
    if (pos == l) record()
    else {
      var k = adj.off(chainRow(pos))
      while (k < adj.off(chainRow(pos) + 1)) {
        if (if (adj.usable == null) realizes(pos, k) else (adj.usable(k) & 1 << pos) != 0) {
          val r = adj.next(k)
          var i = 0
          while (i <= pos && chainRow(i) != r) i += 1
          if (i > pos) { // r is not on the chain yet: paths are simple
            chainRow(pos + 1) = r
            chainEntry(pos) = k
            dfs(pos + 1)
          }
        }
        k += 1
      }
    }

  private def record(): Unit = {
    nPaths += 1
    if (nodePos < 0 && edgeStep < 0) add(1.0) // UnitTarget
    else {
      val k = if (nodePos >= 0) chainRow(nodePos) else chainEntry(edgeStep)
      if (state(k) == 0) {
        val attrs = if (nodePos >= 0) g.nodeAttrs(adj.node(k)) else g.edgeAttrs(g.adjEdge(adj.half(k)))
        state(k) = 1
        attrs.get(attr).flatMap(Attr.num).foreach { x => cached(k) = x; state(k) = 2 }
      }
      if (state(k) == 2) add(cached(k))
    }
  }

  private def add(x: Double): Unit = {
    if (nValues == values.length) values = java.util.Arrays.copyOf(values, 2 * nValues)
    values(nValues) = x
    nValues += 1
  }
}
