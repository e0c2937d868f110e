package repro.bench

import repro.SparkSpec
import repro.eval.Tables

/** Paper Table 4 — execution time (ms) of the 12 samplers on the same grid.
  *
  * Paper shape to reproduce:
  *  - RNS is (near) cheapest everywhere — it just draws node ids;
  *  - PHASE_opt's time does not blow up relative to the walk-based
  *    samplers (its complexity is O(B), §3.2.2): never the runaway worst.
  */
class Table4Bench extends SparkSpec {

  private lazy val grid = BenchShared.grid

  test("Table 4: print the time grid") {
    println(Tables.renderTable4(grid))
  }

  test("Table 4 shape: RNS is among the cheapest samplers in every row") {
    for (ds <- Seq("MovieLens", "DBLP", "Yelp"); kind <- Seq("node", "edge", "path")) {
      val times = Tables.samplerColumns.map(s => grid.cell(ds, kind, s).millis)
      val rns = grid.cell(ds, kind, "RNS").millis
      val rank = times.count(_ < rns)
      // Sub-millisecond cells rank by jitter; accept either a top-4 rank or
      // a time within 2x of the cheapest sampler.
      assert(rank <= 3 || rns <= 2.0 * times.min,
        s"RNS rank $rank in $ds/$kind (${rns}ms vs ${times.sorted.take(4)})")
    }
  }

  test("Table 4 shape: PHASEopt time stays within the walk-sampler envelope") {
    for (ds <- Seq("MovieLens", "DBLP", "Yelp"); kind <- Seq("node", "edge", "path")) {
      val popt = grid.cell(ds, kind, "PHASEopt").millis
      val walkMax = Seq("SRW", "NBRW", "RWR", "MHRW", "FrontierS", "ShortestPathS")
        .map(s => grid.cell(ds, kind, s).millis).max
      assert(popt <= 5.0 * walkMax,
        f"$ds/$kind: PHASEopt $popt%.1f ms vs walk max $walkMax%.1f ms")
    }
  }

  test("Table 4 shape: times scale with dataset size for walk samplers") {
    // DBLP (33k nodes) costs more than MovieLens (3.2k) for the same kind.
    for (s <- Seq("SRW", "PHASEopt")) {
      val ml = grid.cell("MovieLens", "node", s).millis
      val db = grid.cell("DBLP", "node", s).millis
      assert(db > ml, s"$s: DBLP ${db}ms vs MovieLens ${ml}ms")
    }
  }
}
