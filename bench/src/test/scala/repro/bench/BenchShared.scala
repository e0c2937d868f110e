package repro.bench

import repro.SparkSpec
import repro.eval.Tables

/** Bench-wide shared state: the Table 3/4 grid is expensive (3 datasets x 3
  * kinds x 12 samplers x 3 hypotheses x runs), so it is computed once per
  * bench JVM and printed by both table suites. An untimed grid of one run
  * per cell goes first, so that Table 4 does not time JIT warm-up.
  */
object BenchShared {
  lazy val cfg: Tables.Config = Tables.config()

  lazy val grid: Tables.Grid = {
    Tables.grid(SparkSpec.shared, cfg.copy(runs = 1), progress = s => Console.err.println(s"[warm-up] $s"))
    val t0 = System.nanoTime()
    val g = Tables.grid(SparkSpec.shared, cfg,
      progress = s => Console.err.println(s"[grid] $s"))
    Console.err.println(f"[grid] computed in ${(System.nanoTime() - t0) / 1e9}%.1f s")
    g
  }
}
