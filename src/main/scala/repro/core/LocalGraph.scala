package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, StringType}

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
  * paper's implicit inverse relation r^-1). Attributes are columns, one per
  * key ([[AttrColumns]]); every graph is made by [[LocalGraph.build]].
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
    val adjFwd: Array[Boolean]) {            // true: half-edge follows stored direction

  val numNodes: Int = ids.length
  val numEdges: Int = edgeSrc.length

  // Built on the first lookup: the pipeline itself never looks an id up.
  private lazy val idToIdx = LocalGraph.idIndex(ids)

  /** Internal index of an external node id (-1 if absent). */
  def indexOf(id: Long): Int = idToIdx(id)

  def degree(i: Int): Int = adjOff(i + 1) - adjOff(i)

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
    * the traversal direction matches the step's declared direction.
    */
  def halfEdgeMatches(half: Int, step: PathStep, etypeIdx: Int): Boolean =
    etypeOf(adjEdge(half)) == etypeIdx && adjFwd(half) != step.reversed
}

object LocalGraph {
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

  /** The graph of these nodes (id, type, attributes) and directed edges
    * (source id, target id, type, attributes), indexed in the order given.
    * `nodeKeys` and `edgeKeys` are the attribute columns (name, numeric?;
    * see [[AttrColumns.apply]]). Type tables list the types in order of
    * first use. Every edge endpoint must be a node id.
    */
  def build(nodeKeys: Seq[(String, Boolean)], edgeKeys: Seq[(String, Boolean)],
      nodes: Seq[(Long, String, Map[String, Any])],
      edges: Seq[(Long, Long, String, Map[String, Any])]): LocalGraph = {
    val ids = nodes.iterator.map(_._1).toArray
    val (ntypes, ntypeOf) = AttrColumns.intern(nodes.iterator.map(_._2))
    val (etypes, etypeOf) = AttrColumns.intern(edges.iterator.map(_._3))
    val idToIdx = idIndex(ids)
    val n = ids.length
    val m = etypeOf.length
    val eSrc, eDst = new Array[Int](m)
    var i = 0
    edges.foreach { case (src, dst, _, _) =>
      eSrc(i) = idToIdx(src); eDst(i) = idToIdx(dst)
      require(eSrc(i) >= 0 && eDst(i) >= 0, s"edge references unknown node: $src -> $dst")
      i += 1
    }

    // Undirected-expansion CSR: two half-edges per directed edge.
    val off = new Array[Int](n + 1)
    i = 0
    while (i < m) { off(eSrc(i) + 1) += 1; off(eDst(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    val cur = java.util.Arrays.copyOf(off, n)
    val nbr, edg = new Array[Int](2 * m)
    val fwd = new Array[Boolean](2 * m)
    i = 0
    while (i < m) {
      val s = eSrc(i); val d = eDst(i)
      nbr(cur(s)) = d; edg(cur(s)) = i; fwd(cur(s)) = true;  cur(s) += 1
      nbr(cur(d)) = s; edg(cur(d)) = i; fwd(cur(d)) = false; cur(d) += 1
      i += 1
    }
    new LocalGraph(ids, ntypes, ntypeOf, AttrColumns(nodeKeys, nodes.iterator.map(_._3).toArray),
      etypes, eSrc, eDst, etypeOf, AttrColumns(edgeKeys, edges.iterator.map(_._4).toArray), off, nbr, edg, fwd)
  }

  /** The driver-side graph of `g`: the one it carries, if
    * [[AttributedGraph.fromTuples]] built it, else one collected from its
    * DataFrames. Attribute columns are all columns other than the
    * structural ones, and must be double or string columns; a null cell is
    * an absent attribute.
    */
  def fromAttributed(g: AttributedGraph): LocalGraph = g.local.getOrElse(collect(g))

  private def collect(g: AttributedGraph): LocalGraph = {
    // The attribute columns of a DataFrame: name, numeric?
    def keys(df: DataFrame, structural: Set[String]): Seq[(String, Boolean)] =
      df.schema.fields.toSeq.filterNot(f => structural(f.name)).map { f =>
        f.name -> (f.dataType match {
          case DoubleType => true
          case StringType => false
          case t => throw new IllegalArgumentException(
            s"attribute column \"${f.name}\" has type ${t.simpleString}; only double and string are supported")
        })
      }
    def attrs(r: Row, keys: Seq[(String, Boolean)]): Map[String, Any] =
      keys.iterator.map(k => k._1 -> r.getAs[Any](k._1)).filter(_._2 != null).toMap
    val nodeKeys = keys(g.nodes, Set("id", "ntype"))
    val edgeKeys = keys(g.edges, Set("src", "dst", "etype"))
    build(nodeKeys, edgeKeys,
      g.nodes.collect().toSeq.map(r => (r.getAs[Long]("id"), r.getAs[String]("ntype"), attrs(r, nodeKeys))),
      g.edges.collect().toSeq.map(r => (r.getAs[Long]("src"), r.getAs[Long]("dst"), r.getAs[String]("etype"),
        attrs(r, edgeKeys))))
  }
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
