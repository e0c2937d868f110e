package repro.sampling

import org.apache.spark.graphx.{Edge, Graph, TripletFields, VertexId}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, when}
import scala.util.Random

import repro.core.{AttributedGraph, Hypothesis}

/** Distributed PHASE as an iterative vertex-program over a partitioned
  * GraphX graph (the `distributed_dataflow` reproduction target).
  *
  * Structure per superstep (one hop for all m walkers — the synchronous
  * adaptation of Algorithm 1, DESIGN.md §5):
  *
  *  1. the driver broadcasts the walker frontier {vertex -> walker ids} —
  *     m entries, tiny; a walker's *slot* is its index in its vertex's entry;
  *  2. `aggregateMessages` runs over every triplet: an edge incident to a
  *     walker-hosting vertex emits, toward that vertex, one candidate per
  *     hosted walker, in the walker's slot: the neighbor id, the walker's
  *     progress if it moves there, and a *race key* `-ln(U)/w` where w is
  *     the [[Figure3Rule]] weight and U a per-(walker, edge, direction,
  *     superstep) deterministic uniform draw. Merging slot by slot, keeping
  *     the smaller key, IS the weighted neighbor selection (exponential
  *     race), so the weighted choice itself happens distributed, without
  *     materializing any neighbor list;
  *  3. the driver collects the winning candidates, moves walkers,
  *     accumulates V_S, and repeats until the node budget is met.
  *
  * Vertex attribute: an Int bitmask of which path modifiers the node
  * satisfies, computed by one Catalyst projection over the nodes DataFrame,
  * so the driver's vertex list is in node order whatever join strategy or
  * shuffle partitioning Spark is set to, and so are the samples.
  * Edge attribute: the edge-type index.
  *
  * Seed bias: Algorithm 1's per-step walker choice by L_w cannot exist in a
  * synchronous program, so the w_h/w_l seed weighting is applied when
  * drawing the m initial seeds (M_0-satisfying nodes drawn ∝ w_h).
  */
object PhaseGraphX {

  /** Supersteps after which a walk stops short of its budget. */
  private val maxSupersteps = 2000

  /** splitmix64 → uniform in (0,1), deterministic in the seed tuple. */
  private def unit(parts: Long*): Double = {
    var z = 0x9e3779b97f4a7c15L
    parts.foreach { p =>
      z ^= p + 0x9e3779b97f4a7c15L + (z << 6) + (z >>> 2)
      z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
      z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
      z = z ^ (z >>> 31)
    }
    val u = (z >>> 11).toDouble / (1L << 53).toDouble
    math.min(math.max(u, 1e-15), 1.0 - 1e-15)
  }

  /** One superstep's candidates for the walkers on a vertex, by slot: race
    * key, candidate id and the walker's progress after moving there.
    */
  private final case class Slots(key: Array[Double], cand: Array[Long], next: Array[Int])

  private def minKeys(a: Slots, b: Slots): Slots = {
    val out = Slots(a.key.clone(), a.cand.clone(), a.next.clone())
    for (i <- b.key.indices if b.key(i) < a.key(i)) {
      out.key(i) = b.key(i); out.cand(i) = b.cand(i); out.next(i) = b.next(i)
    }
    out
  }

  /** Sampled external node ids (order of first visit). */
  def sample(
      spark: SparkSession,
      ag: AttributedGraph,
      h: Hypothesis,
      budget: Int,
      m: Int = 50,
      wh: Double = 10.0,
      wl: Double = 0.1,
      seed: Long = 7): Array[Long] = {

    val path = h.path
    val l = path.length
    val rule = Figure3Rule(l, wh, wl)
    val stepReversed: Array[Boolean] = path.steps.map(_.reversed).toArray

    // Bit i of a vertex's mask: the vertex satisfies M_i.
    val bits = path.modifiers.zipWithIndex
      .map { case (mod, i) => when(mod.column, 1 << i).otherwise(0) }
      .reduce(_ bitwiseOR _)
    val vertices = ag.nodes.select(col("id"), bits).rdd.map(r => (r.getLong(0), r.getInt(1)))

    val etypeIdx = ag.edgeTypes.zipWithIndex.toMap
    val stepEtypeIdx: Array[Int] = path.steps.map(s => etypeIdx.getOrElse(s.etype, -1)).toArray
    val edges = ag.edges.select("src", "dst", "etype").rdd.map { r =>
      Edge(r.getLong(0), r.getLong(1), etypeIdx(r.getString(2)))
    }
    val graph: Graph[Int, Int] = Graph(vertices, edges, defaultVertexAttr = 0).cache()
    graph.numVertices // materialize

    // Weighted seed draw (the L_w bias applied at initialization).
    val idBits = vertices.collect()
    val rng = new Random(seed)
    val x1 = idBits.collect { case (id, b) if (b & 1) != 0 => id }
    val rest = idBits.collect { case (id, b) if (b & 1) == 0 => id }
    val nWalk = math.max(1, math.min(m, budget))
    val pX1 = if (x1.isEmpty) 0.0
              else wh * x1.length / (wh * x1.length + wl * math.max(1, rest.length))
    // walkerId -> (vertex, progress)
    val pos = new Array[Long](nWalk)
    val prog = new Array[Int](nWalk)
    for (w <- 0 until nWalk) {
      val m0 = rest.isEmpty || (x1.nonEmpty && rng.nextDouble() < pX1)
      pos(w) = if (m0) x1(rng.nextInt(x1.length)) else rest(rng.nextInt(rest.length))
      prog(w) = rule.start(m0)
    }

    def extendsMatch(k: Int, etype: Int, forward: Boolean, candBits: Int): Boolean =
      k >= 1 && k <= l && stepEtypeIdx(k - 1) == etype &&
        (forward != stepReversed(k - 1)) && (candBits & (1 << k)) != 0

    val picked = new scala.collection.mutable.LinkedHashSet[Long]
    val sc = spark.sparkContext
    var superstep = 0
    while (picked.size < budget && superstep < maxSupersteps) {
      val frontier: Map[VertexId, Array[Int]] =
        (0 until nWalk).groupBy(w => pos(w)).map { case (v, ws) => v -> ws.toArray }
      val slot = Array.tabulate(nWalk)(w => (0 until w).count(pos(_) == pos(w)))
      val bFrontier = sc.broadcast(frontier)
      val progNow = prog.clone()
      val stepSeed = seed ^ (superstep.toLong << 17)

      // The candidates over one edge for the walkers on its end `self`.
      def candidates(ws: Array[Int], self: VertexId, cand: VertexId, candBits: Int, etype: Int,
          forward: Boolean): Slots = {
        val out = Slots(new Array[Double](ws.length), new Array[Long](ws.length), new Array[Int](ws.length))
        for (i <- ws.indices) {
          val w = ws(i)
          val ext = extendsMatch(progNow(w), etype, forward, candBits)
          val m0 = (candBits & 1) != 0
          val u = unit(stepSeed, w.toLong, self, cand, if (forward) 1L else 0L, etype.toLong)
          out.key(i) = -math.log(u) / rule.weight(ext, m0)
          out.cand(i) = cand
          out.next(i) = rule.next(progNow(w), ext, m0)
        }
        out
      }

      val msgs = graph.aggregateMessages[Slots](
        ctx => {
          val f = bFrontier.value
          f.get(ctx.srcId).foreach(ws =>
            ctx.sendToSrc(candidates(ws, ctx.srcId, ctx.dstId, ctx.dstAttr, ctx.attr, forward = true)))
          f.get(ctx.dstId).foreach(ws =>
            ctx.sendToDst(candidates(ws, ctx.dstId, ctx.srcId, ctx.srcAttr, ctx.attr, forward = false)))
        },
        minKeys,
        TripletFields.All)

      val winners: Map[VertexId, Slots] = msgs.collect().toMap
      bFrontier.destroy()

      var w = 0
      while (w < nWalk && picked.size < budget) {
        winners.get(pos(w)) match {
          case Some(s) =>
            val cand = s.cand(slot(w))
            if (picked.size < budget) picked += pos(w)
            if (picked.size < budget) picked += cand
            prog(w) = s.next(slot(w))
            pos(w) = cand
          case None =>
            // Isolated vertex (cannot happen on §2.1-conformant graphs):
            // teleport to a fresh seed.
            val (id, b) = idBits(rng.nextInt(idBits.length))
            pos(w) = id
            prog(w) = rule.start((b & 1) != 0)
        }
        w += 1
      }
      superstep += 1
    }
    graph.unpersist()
    picked.toArray
  }
}
