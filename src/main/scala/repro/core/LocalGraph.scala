package repro.core

/** A compact driver-side mirror of an [[AttributedGraph]].
  *
  * Random-walk samplers (paper §3) are inherently sequential — one budget
  * unit advances one walker — so they run on this CSR rather than on
  * cluster dataflow; the distributed PHASE variant lives in
  * `repro.sampling.PhaseGraphX`. All evaluation graphs in this repo fit a
  * single driver comfortably (see DESIGN.md §3).
  *
  * The adjacency is the *undirected expansion*: each directed edge (u,v,r)
  * contributes a forward half-edge at u and a reverse half-edge at v (the
  * paper's implicit inverse relation r^-1). Each half-edge carries one byte,
  * its step code `adjCode`: 2·etype + 1 if it follows the stored direction,
  * 2·etype if not. Whether a half-edge realizes a typed, directed path step
  * is then one byte compare ([[halfEdgeMatches]]) with no read of the edge's
  * type, at the memory a direction flag per half-edge would take. Attributes
  * are columns, one per key ([[AttrColumns]]); every graph is filled into a
  * [[LocalGraph.Builder]], which allows at most 64 edge types, so that every
  * code fits a byte.
  */
final class LocalGraph private (
    val ids: Array[Long],                    // internal idx -> external id
    val ntypes: Array[String],               // interned node type table
    val ntypeOf: Array[Int],                 // internal idx -> ntypes index
    val nodeCols: AttrColumns,
    val etypes: Array[String],               // interned edge type table
    val edgeSrc: Array[Int],
    val edgeDst: Array[Int],
    val etypeOf: Array[Int],                 // edge idx -> etypes index
    val edgeCols: AttrColumns,
    val adjOff: Array[Int],                  // CSR offsets, length n+1
    val adjNbr: Array[Int],                  // neighbor internal idx
    val adjEdge: Array[Int],                 // underlying edge idx
    val adjCode: Array[Byte]) {              // step code: 2·etypeOf(adjEdge) + (1 if it follows the stored direction)

  val numNodes: Int = ids.length
  val numEdges: Int = edgeSrc.length

  // Built on the first lookup: the pipeline itself never looks an id up.
  private lazy val idToIdx = LocalGraph.idIndex(ids)

  /** Internal index of an external node id (-1 if absent). */
  def indexOf(id: Long): Int = idToIdx(id)

  def degree(i: Int): Int = adjOff(i + 1) - adjOff(i)

  /** True iff half-edge `half` follows its edge's stored direction. */
  def adjFwd(half: Int): Boolean = (adjCode(half) & 1) != 0

  /** The largest degree of any node (0 without nodes). */
  lazy val maxDegree: Int = (0 until numNodes).foldLeft(0)((d, i) => math.max(d, degree(i)))

  def nodeType(i: Int): String = ntypes(ntypeOf(i))
  def edgeType(e: Int): String = etypes(etypeOf(e))

  /** Every node's attributes as maps, as `nodeCols.row` gives them: built
    * anew on each call, for digests; read the columns instead.
    */
  def nodeAttrs: Array[Map[String, Any]] = Array.tabulate(numNodes)(nodeCols.row)
  /** Every edge's attributes as maps; see [[nodeAttrs]]. */
  def edgeAttrs: Array[Map[String, Any]] = Array.tabulate(numEdges)(edgeCols.row)

  /** True iff node `i` satisfies modifier `m`. */
  def matches(i: Int, m: Modifier): Boolean = mask(m)(i)

  private val masks = new java.util.concurrent.ConcurrentHashMap[Modifier, Array[Boolean]]()

  /** The match mask of modifier `m`, one flag per node, evaluated on the
    * columns with [[Modifier.matches]]'s semantics.
    */
  private def mask(m: Modifier): Array[Boolean] = masks.computeIfAbsent(m, _ => {
    val t = ntypes.indexOf(m.ntype)
    val preds = m.preds.map(nodeCols.test).toArray
    Array.tabulate(numNodes)(i => ntypeOf(i) == t && preds.forall(_(i)))
  })

  /** The match mask of every modifier on a path, by position: one flag per
    * node. Each modifier's mask is computed once per graph, kept in a cache
    * on this instance and shared by every caller, so read it, never write it.
    */
  def labels(path: PathSpec): Array[Array[Boolean]] = path.modifiers.toArray.map(mask)

  /** Half-edge matches a declared step if the underlying edge type agrees and
    * the traversal direction matches the step's declared direction: one
    * compare of its byte in `adjCode` against [[LocalGraph.stepCode]].
    */
  def halfEdgeMatches(half: Int, step: PathStep, etypeIdx: Int): Boolean =
    adjCode(half) == LocalGraph.stepCode(step, etypeIdx)
}

object LocalGraph {
  /** The `adjCode` of the half-edges that realize `step` over edge type
    * `etypeIdx`; no half-edge has it if the index is negative.
    */
  def stepCode(step: PathStep, etypeIdx: Int): Int = 2 * etypeIdx + (if (step.reversed) 0 else 1)

  /** External id -> internal index (-1 if absent): an offset when the ids
    * are consecutive, as the generators make them, else a hash map.
    */
  private def idIndex(ids: Array[Long]): Long => Int = {
    val first = if (ids.isEmpty) 0L else ids(0)
    if (ids.indices.forall(i => ids(i) == first + i))
      id => if (id >= first && id - first < ids.length) (id - first).toInt else -1
    else {
      val m = new java.util.HashMap[Long, Integer](ids.length * 2)
      var i = 0
      while (i < ids.length) { m.put(ids(i), i); i += 1 }
      id => { val v = m.get(id); if (v == null) -1 else v.intValue() }
    }
  }

  /** A graph as it is filled: the nodes `ids`, each given its type by
    * `nodes.setType`, and directed edges between node indices, appended by
    * [[addEdge]]. Attributes go into the columns of `nodes` and `edges`.
    * `result` trims every array to |V| or |E| rows and lays out the CSR,
    * its half-edges in edge order: in every row `adjEdge` never decreases,
    * and a self-loop's two halves sit side by side (forward first).
    * `ShortestPaths` finds a half-edge's twin by binary search on it.
    */
  final class Builder(ids: Array[Long]) {
    /** Nodes 0 to n-1, whose ids are their indices. */
    def this(n: Int) = this { val ids = new Array[Long](n); for (i <- 0 until n) ids(i) = i; ids }

    val nodes, edges = new TableBuilder
    private val src, dst = new Ints
    private var m = 0

    /** Appends the edge `s` -> `d` of type `code` ([[TableBuilder.typeCode]]
      * of `edges`) and returns its index.
      */
    def addEdge(s: Int, d: Int, code: Int): Int = {
      require(s >= 0 && s < ids.length && d >= 0 && d < ids.length, s"edge between unknown nodes: $s -> $d")
      src(m) = s; dst(m) = d
      edges.setType(m, code)
      m += 1
      m - 1
    }

    /** The nodes that no edge added so far touches, in index order. */
    def isolated(): Seq[Int] = {
      val touched = new java.util.BitSet(ids.length)
      for (e <- 0 until m) { touched.set(src(e)); touched.set(dst(e)) }
      (0 until ids.length).filterNot(touched.get)
    }

    def result(): LocalGraph = {
      val (ntypes, ntypeOf, nodeCols) = nodes.result(ids.length)
      val (etypes, etypeOf, edgeCols) = edges.result(m)
      require(etypes.length <= 64, s"${etypes.length} edge types; a step code holds at most 64")
      val (eSrc, eDst, n) = (src.result(m), dst.result(m), ids.length)
      // Undirected-expansion CSR: two half-edges per directed edge.
      val off = new Array[Int](n + 1)
      var i = 0
      while (i < m) { off(eSrc(i) + 1) += 1; off(eDst(i) + 1) += 1; i += 1 }
      i = 0
      while (i < n) { off(i + 1) += off(i); i += 1 }
      val cur = java.util.Arrays.copyOf(off, n)
      val nbr, edg = new Array[Int](2 * m)
      val code = new Array[Byte](2 * m)
      i = 0
      while (i < m) {
        val s = eSrc(i); val d = eDst(i); val c = 2 * etypeOf(i)
        nbr(cur(s)) = d; edg(cur(s)) = i; code(cur(s)) = (c + 1).toByte; cur(s) += 1
        nbr(cur(d)) = s; edg(cur(d)) = i; code(cur(d)) = c.toByte;       cur(d) += 1
        i += 1
      }
      new LocalGraph(ids, ntypes, ntypeOf, nodeCols, etypes, eSrc, eDst, etypeOf, edgeCols, off, nbr, edg, code)
    }
  }

  /** The driver-side graph that `g` carries, which
    * [[AttributedGraph.fromLocal]] gave it. A graph made from DataFrames
    * alone carries none and is rejected: the program builds every graph it
    * reads, and only the tests' reference collector `ReferenceCollect`
    * collects one.
    */
  def fromAttributed(g: AttributedGraph): LocalGraph = g.local.getOrElse(throw new IllegalArgumentException(
    "a graph made from DataFrames carries no LocalGraph; the test reference ReferenceCollect collects one"))
}

/** A sampled graph S: a set of node indices plus, for edge samplers, the
  * explicitly sampled edge indices. When `edgeIdx` is None, S is the induced
  * subgraph on `nodeIdx` (paper §3.2.1, last paragraph).
  */
final case class SampledGraph(nodeIdx: Array[Int], edgeIdx: Option[Array[Int]] = None) {
  def size: Int = nodeIdx.length
  lazy val nodeSet: java.util.BitSet = {
    val b = new java.util.BitSet()
    nodeIdx.foreach(b.set)
    b
  }
  def contains(i: Int): Boolean = nodeSet.get(i)
}
