package repro.core

import org.apache.spark.sql.Row
import scala.collection.mutable

/** A compact driver-side mirror of an [[AttributedGraph]].
  *
  * Random-walk samplers (paper §3) are inherently sequential — one budget
  * unit advances one walker — so they run on this collected CSR rather than
  * on cluster dataflow; the distributed PHASE variant lives in
  * `repro.sampling.PhaseGraphX`. All evaluation graphs in this repo fit a
  * single driver comfortably (see DESIGN.md §3).
  *
  * The adjacency is the *undirected expansion*: each directed edge (u,v,r)
  * contributes a forward half-edge at u and a reverse half-edge at v (the
  * paper's implicit inverse relation r^-1).
  */
final class LocalGraph(
    val ids: Array[Long],                    // internal idx -> external id
    val ntypes: Array[String],               // interned node type table
    val ntypeOf: Array[Int],                 // internal idx -> ntypes index
    val nodeAttrs: Array[Map[String, Any]],
    val etypes: Array[String],               // interned edge type table
    val edgeSrc: Array[Int],
    val edgeDst: Array[Int],
    val etypeOf: Array[Int],                 // edge idx -> etypes index
    val edgeAttrs: Array[Map[String, Any]],
    val adjOff: Array[Int],                  // CSR offsets, length n+1
    val adjNbr: Array[Int],                  // neighbor internal idx
    val adjEdge: Array[Int],                 // underlying edge idx
    val adjFwd: Array[Boolean]) {            // true: half-edge follows stored direction

  val numNodes: Int = ids.length
  val numEdges: Int = edgeSrc.length

  // Built on the first lookup: the pipeline itself never looks an id up.
  private lazy val idToIdx = LocalGraph.idIndex(ids)

  /** Internal index of an external node id (-1 if absent). */
  def indexOf(id: Long): Int = {
    val v = idToIdx.get(id)
    if (v == null) -1 else v.intValue()
  }

  def degree(i: Int): Int = adjOff(i + 1) - adjOff(i)

  /** The largest degree of any node (0 without nodes). */
  lazy val maxDegree: Int = (0 until numNodes).foldLeft(0)((d, i) => math.max(d, degree(i)))

  def nodeType(i: Int): String = ntypes(ntypeOf(i))
  def edgeType(e: Int): String = etypes(etypeOf(e))

  /** True iff node `i` satisfies modifier `m`. */
  def matches(i: Int, m: Modifier): Boolean =
    m.matches(nodeType(i), nodeAttrs(i))

  private val masks = new java.util.concurrent.ConcurrentHashMap[Modifier, Array[Boolean]]()

  /** The match mask of every modifier on a path, by position: one flag per
    * node. Each modifier's mask is computed once per graph, kept in a cache
    * on this instance and shared by every caller, so read it, never write it.
    */
  def labels(path: PathSpec): Array[Array[Boolean]] = path.modifiers.toArray.map { m =>
    masks.computeIfAbsent(m, _ => Array.tabulate(numNodes)(i => matches(i, m)))
  }

  /** Half-edge matches a declared step if the underlying edge type agrees and
    * the traversal direction matches the step's declared direction.
    */
  def halfEdgeMatches(half: Int, step: PathStep, etypeIdx: Int): Boolean =
    etypeOf(adjEdge(half)) == etypeIdx && adjFwd(half) != step.reversed
}

object LocalGraph {
  /** External id -> internal index, for every node. */
  private def idIndex(ids: Array[Long]): java.util.HashMap[Long, Integer] = {
    val m = new java.util.HashMap[Long, Integer](ids.length * 2)
    var i = 0
    while (i < ids.length) { m.put(ids(i), i); i += 1 }
    m
  }

  /** Collect an [[AttributedGraph]] to the driver. Attribute columns are all
    * columns other than the structural ones; nulls are dropped from the maps.
    */
  def fromAttributed(g: AttributedGraph): LocalGraph = {
    // The non-null values of a row's attribute columns, by column name.
    def attrs(r: Row, names: Array[String], cols: Array[Int]): Map[String, Any] = {
      val m = Map.newBuilder[String, Any]
      var k = 0
      while (k < cols.length) {
        val v = r.get(cols(k))
        if (v != null) m += names(k) -> v
        k += 1
      }
      m.result()
    }
    val nodeAttrCols = g.nodes.columns.filterNot(c => c == "id" || c == "ntype")
    val edgeAttrCols = g.edges.columns.filterNot(c => c == "src" || c == "dst" || c == "etype")

    val nRows = g.nodes.collect()
    val n = nRows.length
    val ids = new Array[Long](n)
    val ntypeTable = mutable.LinkedHashMap.empty[String, Int]
    val ntypeOf = new Array[Int](n)
    val nAttrs = new Array[Map[String, Any]](n)
    val idCol = g.nodes.columns.indexOf("id")
    val ntCol = g.nodes.columns.indexOf("ntype")
    val naCols = nodeAttrCols.map(c => g.nodes.columns.indexOf(c))
    var i = 0
    while (i < n) {
      val r = nRows(i)
      ids(i) = r.getLong(idCol)
      val t = r.getString(ntCol)
      ntypeOf(i) = ntypeTable.getOrElseUpdate(t, ntypeTable.size)
      nAttrs(i) = attrs(r, nodeAttrCols, naCols)
      i += 1
    }
    val idToIdx = idIndex(ids)

    val eRows = g.edges.collect()
    val mEdges = eRows.length
    val eSrc = new Array[Int](mEdges)
    val eDst = new Array[Int](mEdges)
    val etypeTable = mutable.LinkedHashMap.empty[String, Int]
    val etypeOf = new Array[Int](mEdges)
    val eAttrs = new Array[Map[String, Any]](mEdges)
    val sCol = g.edges.columns.indexOf("src")
    val dCol = g.edges.columns.indexOf("dst")
    val tCol = g.edges.columns.indexOf("etype")
    val eaCols = edgeAttrCols.map(c => g.edges.columns.indexOf(c))
    i = 0
    while (i < mEdges) {
      val r = eRows(i)
      val s = idToIdx.get(r.getLong(sCol)); val d = idToIdx.get(r.getLong(dCol))
      require(s != null && d != null,
        s"edge references unknown node: ${r.getLong(sCol)} -> ${r.getLong(dCol)}")
      eSrc(i) = s.intValue(); eDst(i) = d.intValue()
      etypeOf(i) = etypeTable.getOrElseUpdate(r.getString(tCol), etypeTable.size)
      eAttrs(i) = attrs(r, edgeAttrCols, eaCols)
      i += 1
    }

    // Undirected-expansion CSR: two half-edges per directed edge.
    val deg = new Array[Int](n)
    i = 0
    while (i < mEdges) { deg(eSrc(i)) += 1; deg(eDst(i)) += 1; i += 1 }
    val off = new Array[Int](n + 1)
    i = 0
    while (i < n) { off(i + 1) = off(i) + deg(i); i += 1 }
    val cur = java.util.Arrays.copyOf(off, n)
    val nbr = new Array[Int](2 * mEdges)
    val edg = new Array[Int](2 * mEdges)
    val fwd = new Array[Boolean](2 * mEdges)
    i = 0
    while (i < mEdges) {
      val s = eSrc(i); val d = eDst(i)
      nbr(cur(s)) = d; edg(cur(s)) = i; fwd(cur(s)) = true;  cur(s) += 1
      nbr(cur(d)) = s; edg(cur(d)) = i; fwd(cur(d)) = false; cur(d) += 1
      i += 1
    }

    new LocalGraph(ids, ntypeTable.keys.toArray, ntypeOf, nAttrs,
      etypeTable.keys.toArray, eSrc, eDst, etypeOf, eAttrs, off, nbr, edg, fwd)
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
