package repro.core

import scala.collection.mutable.ArrayBuffer

/** The slow reference for [[LocalEvaluator.extract]]: a typed DFS started
  * from every node of G in index order, which tests membership in S per
  * node and per edge. It matches modifiers and reads targets on each
  * node's and edge's attribute map (`AttrColumns.row`) with
  * `Modifier.matches` and `Attr.num`, so it shares no code with the fast
  * path beyond `LocalGraph`'s CSR and its columns' cells.
  * Differential tests require the fast path to return the same instance
  * count, and the same values: in the same order where it enumerates the
  * paths, as a multiset where it counts them (two-step paths).
  */
object ReferenceExtract {

  def apply(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph] = None): (Array[Double], Long) = {
    val path = h.path
    val l = path.length
    val lab = path.modifiers.toArray.map(m => Array.tabulate(g.numNodes)(i => m.matches(g.nodeType(i), g.nodeCols.row(i))))
    val stepType = path.steps.map(s => g.etypes.indexOf(s.etype)).toArray
    // An edge type absent from the graph ⇒ zero relevant paths.
    if (stepType.exists(_ < 0)) return (Array.empty, 0L)

    val nodeOk: Int => Boolean = sample match {
      case Some(s) => i => s.contains(i)
      case None    => _ => true
    }
    val edgeOk: Int => Boolean = sample.flatMap(_.edgeIdx) match {
      case Some(es) =>
        val b = new java.util.BitSet(); es.foreach(b.set); e => b.get(e)
      case None => _ => true
    }

    val values = new ArrayBuffer[Double]()
    var nPaths = 0L
    val chainNodes = new Array[Int](l + 1)
    val chainEdges = new Array[Int](math.max(l, 1))

    def fValue(): Option[Double] = h.target match {
      case NodeAttrTarget(p, attr) => g.nodeCols.row(chainNodes(p)).get(attr).flatMap(Attr.num)
      case EdgeAttrTarget(s, attr) => g.edgeCols.row(chainEdges(s)).get(attr).flatMap(Attr.num)
      case UnitTarget              => Some(1.0)
    }

    def dfs(pos: Int): Unit = {
      if (pos == l) {
        nPaths += 1
        fValue().foreach(values += _)
      } else {
        val v = chainNodes(pos)
        val step = path.steps(pos)
        val et = stepType(pos)
        var half = g.adjOff(v)
        val end = g.adjOff(v + 1)
        while (half < end) {
          if (g.halfEdgeMatches(half, step, et)) {
            val u = g.adjNbr(half)
            val e = g.adjEdge(half)
            if (lab(pos + 1)(u) && nodeOk(u) && edgeOk(e)) {
              var dup = false
              var k = 0
              while (k <= pos && !dup) { if (chainNodes(k) == u) dup = true; k += 1 }
              if (!dup) {
                chainNodes(pos + 1) = u
                chainEdges(pos) = e
                dfs(pos + 1)
              }
            }
          }
          half += 1
        }
      }
    }

    var i = 0
    while (i < g.numNodes) {
      if (lab(0)(i) && nodeOk(i)) {
        chainNodes(0) = i
        dfs(0)
      }
      i += 1
    }
    (values.toArray, nPaths)
  }

  /** `values` with each pair's value repeated by its multiplicity, in pair
    * order.
    */
  def expand(values: Values): Array[Double] = {
    val out = new ArrayBuffer[Double]()
    for (i <- 0 until values.size; _ <- 0L until values.mult(i)) out += values.value(i)
    out.toArray
  }

  /** `values` as (value, multiplicity) pairs, in pair order. */
  def pairs(values: Values): Seq[(Double, Long)] = (0 until values.size).map(i => (values.value(i), values.mult(i)))

  /** The values' bits, sorted: equal for two arrays with the same multiset
    * of values, -0.0 and 0.0 apart.
    */
  def multiset(values: Array[Double]): Seq[Long] = values.map(java.lang.Double.doubleToRawLongBits).sorted.toSeq

  /** The non-null f values of [[SparkEvaluator.relevantPaths]], in no set
    * order: the Catalyst side's t-test inputs, collected to the driver.
    */
  def sparkValues(g: AttributedGraph, h: Hypothesis): Array[Double] =
    SparkEvaluator.relevantPaths(g, h).select("fval").na.drop().collect().map(_.getDouble(0))
}
