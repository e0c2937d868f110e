package repro.eval

import org.apache.spark.sql.SparkSession
import scala.util.Random

import repro.core._
import repro.graphgen.GraphGen
import repro.hypotheses.Catalog
import repro.sampling._

/** The experiment harnesses behind the paper's evaluation tables (DESIGN.md
  * §6). Both the `jobs/` spark-submit entry points and the `bench/` suites
  * call into these, so a table is always produced by exactly one code path.
  */
object Tables {

  final case class Config(scale: Double = 1.0, runs: Int = 10, seed: Long = 2024)

  def config(): Config = Config(
    scale = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0),
    runs = sys.env.get("REPRO_RUNS").map(_.toInt).getOrElse(10))

  /** Bench-scale datasets in paper order. */
  def datasets(spark: SparkSession, cfg: Config): Seq[(String, AttributedGraph)] = Seq(
    "MovieLens" -> GraphGen.movieLens(spark, cfg.scale),
    "DBLP" -> GraphGen.dblp(spark, cfg.scale),
    "Yelp" -> GraphGen.yelp(spark, cfg.scale))

  /** Sampling proportion (% of |V|) per (dataset, hypothesis kind).
    *
    * The paper's proportions (ML 1/2.5/5, DBLP 0.2, Yelp 0.1/1/1) are tied
    * to graphs 40–80x larger than our synthetic substitutes; these values
    * keep the *absolute* budgets comparable (DESIGN.md §4).
    */
  val proportions: Map[(String, String), Double] = Map(
    ("MovieLens", "node") -> 2.0, ("MovieLens", "edge") -> 2.5, ("MovieLens", "path") -> 5.0,
    ("DBLP", "node") -> 2.5, ("DBLP", "edge") -> 2.5, ("DBLP", "path") -> 2.5,
    ("Yelp", "node") -> 2.0, ("Yelp", "edge") -> 2.0, ("Yelp", "path") -> 2.0)

  /** Table 3/4 column order (paper order). */
  val samplerColumns: Seq[String] = Seq("PHASEopt", "RES", "RNS", "DBS", "SRW",
    "NBRW", "RWR", "MHRW", "ShortestPathS", "FrontierS", "FFS", "SBS")

  /** The twelve samplers of Tables 3/4, instantiated for hypothesis `h`
    * (only PHASE variants actually use it). Paper parameters m=50, n=30,
    * w_h=10, w_l=0.1 (§4.1).
    */
  def samplersFor(h: Hypothesis): Map[String, Sampler] = Map(
    "PHASEopt" -> PhaseOptSampler(h),
    "RES" -> RandomEdgeSampler(),
    "RNS" -> RandomNodeSampler(),
    "DBS" -> DegreeBasedSampler(),
    "SRW" -> SimpleRandomWalk(),
    "NBRW" -> NonBacktrackingRandomWalk(),
    "RWR" -> RandomWalkWithRestart(),
    "MHRW" -> MetropolisHastingsRandomWalk(),
    "ShortestPathS" -> ShortestPathSampler(),
    "FrontierS" -> FrontierSampler(),
    "FFS" -> ForestFireSampler(),
    "SBS" -> SnowballSampler())

  // ----------------------------------------------------------------- Table 1

  final case class DatasetStats(name: String, nodes: Long, edges: Long,
      density: Double, nodeTypes: Int, edgeTypes: Int)

  def table1(spark: SparkSession, cfg: Config): Seq[DatasetStats] =
    datasets(spark, cfg).map { case (name, g) => datasetStats(name, LocalGraph.fromAttributed(g)) }

  /** |V|, |E|, the directed density |E| / (|V| (|V|-1)) and the node and
    * edge types that occur, read off the graph's CSR.
    */
  def datasetStats(name: String, g: LocalGraph): DatasetStats = {
    val v = g.numNodes.toDouble
    DatasetStats(name, g.numNodes, g.numEdges, if (v <= 1) 0.0 else g.numEdges / (v * (v - 1)),
      g.ntypeOf.distinct.length, g.etypeOf.distinct.length)
  }

  def renderTable1(rows: Seq[DatasetStats]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-10s ${"#(Nodes)"}%10s ${"#(Edges)"}%12s ${"Density"}%10s ${"#NT"}%4s ${"#ET"}%4s\n"
    rows.foreach { r =>
      sb ++= f"${r.name}%-10s ${r.nodes}%,10d ${r.edges}%,12d ${r.density}%10.2e ${r.nodeTypes}%4d ${r.edgeTypes}%4d\n"
    }
    sb.result()
  }

  // ----------------------------------------------------------------- Table 2

  final case class Table2Row(kind: String, hypothesis: String,
      phaseMillis: Double, phaseOptMillis: Double,
      phaseEstimate: Option[Double], phaseOptEstimate: Option[Double]) {
    def speedup: Double = phaseMillis / phaseOptMillis
  }

  /** Table 2 budget: 5% of |V|. Larger than the Table 3/4 proportion so the
    * walks revisit hub neighborhoods enough for PHASE's O(deg) per-step scan
    * to dominate — the regime the paper's ">= 20x" measurement lives in.
    */
  val table2ProportionPct: Double = 5.0

  /** PHASE vs PHASE_opt wall-clock (sampling + extraction), DBLP (§4.3). */
  def table2(spark: SparkSession, cfg: Config): Seq[Table2Row] = {
    val ag = GraphGen.dblp(spark, cfg.scale)
    val lg = LocalGraph.fromAttributed(ag)
    Seq("node" -> Catalog.dblp.node.head,
        "edge" -> Catalog.dblp.edge.head,
        "path" -> Catalog.dblp.path.head).map { case (kind, h) =>
      val budget = math.max(1,
        (table2ProportionPct / 100.0 * lg.numNodes).toInt)
      val truth = Framework.groundTruth(lg, h)
      // One warm-up run, then the timed runs, seeded cfg.seed+1 .. cfg.seed+runs.
      def measure(s: Sampler): Framework.Accuracy = {
        Framework.runOnce(lg, h, s, budget, new Random(cfg.seed))
        Framework.accuracy(lg, h, s, budget, cfg.runs, cfg.seed + 1, truth)
      }
      val p = measure(PhaseSampler(h))
      val o = measure(PhaseOptSampler(h))
      Table2Row(kind, h.name, p.avgTotalMillis, o.avgTotalMillis, p.avgEstimate, o.avgEstimate)
    }
  }

  def renderTable2(rows: Seq[Table2Row]): String = {
    val sb = new StringBuilder
    sb ++= f"${"(sec)"}%-10s ${"Node"}%10s ${"Edge"}%10s ${"Path"}%10s\n"
    def line(name: String, f: Table2Row => Double): Unit = {
      sb ++= f"$name%-10s"
      rows.foreach(r => sb ++= f" ${f(r) / 1000.0}%10.3f")
      sb ++= "\n"
    }
    line("PHASE", _.phaseMillis)
    line("PHASEopt", _.phaseOptMillis)
    sb ++= f"${"speedup"}%-10s"
    rows.foreach(r => sb ++= f" ${r.speedup}%9.1fx")
    sb ++= "\n"
    sb.result()
  }

  // ------------------------------------------------------------- Tables 3+4

  /** One (dataset, kind, sampler) cell: accuracy and time averaged over the
    * three hypotheses of that kind (each itself averaged over cfg.runs).
    */
  final case class GridCell(dataset: String, kind: String, sampler: String,
      proportion: Double, accuracy: Double, millis: Double)

  final case class Grid(cells: Seq[GridCell]) {
    def cell(dataset: String, kind: String, sampler: String): GridCell =
      cells.find(c => c.dataset == dataset && c.kind == kind && c.sampler == sampler).get
  }

  /** Runs the full Table 3/4 grid: 3 datasets x 3 kinds x 12 samplers. */
  def grid(spark: SparkSession, cfg: Config,
           progress: String => Unit = _ => ()): Grid = {
    val cells = for {
      (dsName, ag) <- datasets(spark, cfg)
      lg = LocalGraph.fromAttributed(ag)
      kind <- Seq("node", "edge", "path")
    } yield {
      val prop = proportions((dsName, kind))
      val budget = math.max(1, (prop / 100.0 * lg.numNodes).toInt)
      val hyps = Catalog.all(dsName).byKind(kind)
      val truths = hyps.map(h => h -> Framework.groundTruth(lg, h)).toMap
      progress(s"$dsName/$kind: budget=$budget, ${hyps.size} hypotheses x ${cfg.runs} runs")
      samplerColumns.map { sName =>
        var accSum = 0.0
        var msSum = 0.0
        for (h <- hyps) {
          val sampler = samplersFor(h)(sName)
          val a = Framework.accuracy(lg, h, sampler, budget, cfg.runs,
            cfg.seed ^ h.name.hashCode.toLong, truths(h))
          accSum += a.accuracy
          msSum += a.avgTotalMillis
        }
        GridCell(dsName, kind, sName, prop, accSum / hyps.size, msSum / hyps.size)
      }
    }
    Grid(cells.flatten)
  }

  private def renderGrid(grid: Grid, value: GridCell => String, header: String): String = {
    val sb = new StringBuilder
    sb ++= header + "\n"
    sb ++= f"${"Dataset"}%-10s ${"Kind"}%-5s ${"Prop%"}%6s"
    samplerColumns.foreach(s => sb ++= f" ${s.take(9)}%9s")
    sb ++= "\n"
    for (ds <- Seq("MovieLens", "DBLP", "Yelp"); kind <- Seq("node", "edge", "path")) {
      val cells = samplerColumns.map(s => grid.cell(ds, kind, s))
      sb ++= f"$ds%-10s $kind%-5s ${cells.head.proportion}%6.1f"
      cells.foreach(c => sb ++= f" ${value(c)}%9s")
      sb ++= "\n"
    }
    sb.result()
  }

  def renderTable3(g: Grid): String =
    renderGrid(g, c => f"${c.accuracy}%.2f", "Table 3 — accuracy (avg of 3 hypotheses)")

  def renderTable4(g: Grid): String =
    renderGrid(g, c => f"${c.millis}%.3f", "Table 4 — execution time, ms (avg of 3 hypotheses)")
}
