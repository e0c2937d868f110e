package repro.graphgen

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestGraphs}
import repro.core.{Degrees, LocalGraph}
import repro.eval.Tables

/** Synthetic dataset generators: structure, determinism, planted signals. */
class GraphGenSpec extends SparkSpec {

  private lazy val ml = TestGraphs.mlSmall
  private lazy val db = TestGraphs.dblpSmall
  private lazy val ye = TestGraphs.yelpSmall

  // ------------------------------------------------------------- structure

  /** The node and edge types that occur in `g`, sorted. */
  private def types(g: LocalGraph): (Seq[String], Seq[String]) =
    (g.ntypeOf.distinct.map(g.ntypes).toSeq.sorted, g.etypeOf.distinct.map(g.etypes).toSeq.sorted)

  test("MovieLens has 2 node types and 1 edge type (Table 1 shape)") {
    assert(types(TestGraphs.mlSmallLocal) == (Seq("movie", "user"), Seq("rates")))
  }
  test("DBLP has 4 node types and 4 edge types (Table 1 shape)") {
    assert(types(TestGraphs.dblpSmallLocal) ==
      (Seq("author", "fos", "paper", "venue"), Seq("Authorship", "Cites", "PublishedIn", "WithDomain")))
  }
  test("Yelp has 2 node types and 1 edge type (Table 1 shape)") {
    assert(types(TestGraphs.yelpSmallLocal) == (Seq("business", "user"), Seq("review")))
  }
  test("MovieLens is the densest dataset, as in Table 1") {
    val Seq(mld, dbd, yed) = Seq(TestGraphs.mlSmallLocal, TestGraphs.dblpSmallLocal, TestGraphs.yelpSmallLocal)
      .map(Tables.datasetStats("", _).density)
    assert(mld > dbd && mld > yed)
  }
  test("every node has at least one edge (§2.1 assumption)") {
    for ((name, g) <- Seq("ml" -> ml, "dblp" -> db, "yelp" -> ye)) {
      val isolated = Degrees.of(g).filter(col("degree") === 0).count()
      assert(isolated == 0, s"$name has $isolated isolated nodes")
    }
  }
  test("edges reference existing nodes") {
    // LocalGraph.fromAttributed throws if an endpoint is unknown.
    assert(TestGraphs.dblpSmallLocal.numEdges == db.edges.count())
  }
  test("DBLP edge types connect the right node types") {
    val lg = TestGraphs.dblpSmallLocal
    for (e <- 0 until lg.numEdges) {
      val (s, d) = (lg.nodeType(lg.edgeSrc(e)), lg.nodeType(lg.edgeDst(e)))
      lg.edgeType(e) match {
        case "Authorship"  => assert(s == "paper" && d == "author")
        case "PublishedIn" => assert(s == "paper" && d == "venue")
        case "WithDomain"  => assert(s == "paper" && d == "fos")
        case "Cites"       => assert(s == "paper" && d == "paper")
      }
    }
  }
  test("bipartite datasets only connect user to item") {
    for (lg <- Seq(TestGraphs.mlSmallLocal, TestGraphs.yelpSmallLocal); e <- 0 until lg.numEdges)
      assert(lg.nodeType(lg.edgeSrc(e)) == "user" && lg.nodeType(lg.edgeDst(e)) != "user")
  }

  // ----------------------------------------------------------- determinism

  test("generators are deterministic in (scale, seed)") {
    val a = GraphGen.dblp(spark, scale = 0.02, seed = 9)
    val b = GraphGen.dblp(spark, scale = 0.02, seed = 9)
    assert(a.nodes.count() == b.nodes.count() && a.edges.count() == b.edges.count())
    val ca = a.nodes.agg(sum(hash(col("id"), col("ntype"), col("citation")))).collect()(0).getLong(0)
    val cb = b.nodes.agg(sum(hash(col("id"), col("ntype"), col("citation")))).collect()(0).getLong(0)
    assert(ca == cb)
  }
  test("different seeds give different graphs") {
    val a = GraphGen.yelp(spark, scale = 0.02, seed = 1)
    val b = GraphGen.yelp(spark, scale = 0.02, seed = 2)
    val ha = a.edges.agg(sum(hash(col("src"), col("dst"), col("stars")))).collect()(0).getLong(0)
    val hb = b.edges.agg(sum(hash(col("src"), col("dst"), col("stars")))).collect()(0).getLong(0)
    assert(ha != hb)
  }
  test("scale grows node and edge counts") {
    val s1 = GraphGen.movieLens(spark, scale = 0.02)
    assert(ml.nodes.count() > s1.nodes.count() && ml.edges.count() > s1.edges.count())
  }

  // ------------------------------------------------------- attribute domains

  test("MovieLens attributes lie in their domains") {
    val bad = ml.nodes.filter(
      (col("ntype") === "movie" && (col("year") < 1950 || col("year") > 2020)) ||
      (col("ntype") === "user" && (col("age") < 18 || col("age") > 75))).count()
    assert(bad == 0)
    val badR = ml.edges.filter(col("rating") < 0.5 || col("rating") > 5.0).count()
    assert(badR == 0)
  }
  test("DBLP attributes lie in their domains") {
    val bad = db.nodes.filter(col("ntype") === "paper" &&
      (col("year") < 1990 || col("year") > 2023 || col("citation") < 0)).count()
    assert(bad == 0)
    val badW = db.edges.filter(col("etype") === "WithDomain" &&
      (col("weight") < 0.05 || col("weight") > 1.0)).count()
    assert(badW == 0)
  }
  test("Yelp stars are integral 1..5") {
    val bad = ye.edges.filter(col("stars") < 1 || col("stars") > 5 ||
      col("stars") =!= round(col("stars"))).count()
    assert(bad == 0)
  }

  // --------------------------------------------------------- planted signals

  test("planted: documentaries rate above the global mean") {
    val doc = ml.edges.join(ml.nodes.filter(col("genre") === "documentary"),
      ml.edges("dst") === ml.nodes("id")).agg(avg("rating")).collect()(0).getDouble(0)
    val all = ml.edges.agg(avg("rating")).collect()(0).getDouble(0)
    assert(doc > all + 0.3, s"doc=$doc all=$all")
  }
  test("planted: conference papers out-cite journal papers") {
    val byVt = db.nodes.filter(col("ntype") === "paper")
      .groupBy("venue_type").agg(avg("citation").as("c"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(byVt("conference") > byVt("journal"))
  }
  test("planted: fastfood reviews beat the global mean by a margin") {
    val ff = ye.edges.join(ye.nodes.filter(col("category") === "fastfood"),
      ye.edges("dst") === ye.nodes("id")).agg(avg("stars")).collect()(0).getDouble(0)
    val all = ye.edges.agg(avg("stars")).collect()(0).getDouble(0)
    assert(ff > all + 0.3, s"ff=$ff all=$all")
  }
  test("planted: elite users have more fans") {
    val byElite = ye.nodes.filter(col("ntype") === "user")
      .groupBy("elite").agg(avg("fans").as("f"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(byElite("yes") > 2 * byElite("no"))
  }
  test("degree skew: DBLP max degree is a hub") {
    val lg = TestGraphs.dblpSmallLocal
    val degs = (0 until lg.numNodes).map(lg.degree)
    val mean = degs.sum.toDouble / degs.size
    assert(degs.max > 10 * mean, s"max=${degs.max} mean=$mean")
  }

  // ----------------------------------------------------------------- sizes

  test("bench-scale sizes are in the documented ballpark") {
    // Avoid regenerating bench scale here (slow); derive from small scale.
    assert(TestGraphs.dblpSmallLocal.numNodes > 1000 && TestGraphs.dblpSmallLocal.numNodes < 3000) // 32.5K * 0.05
    assert(TestGraphs.yelpSmallLocal.numNodes > 800 && TestGraphs.yelpSmallLocal.numNodes < 2000)
  }
  test("Zipf sampler is skewed and in range") {
    val rng = new scala.util.Random(3)
    val z = new GraphGen.Zipf(100, 1.2, rng)
    val draws = Array.fill(5000)(z.draw())
    assert(draws.forall(d => d >= 0 && d < 100))
    val top = draws.count(_ == 0).toDouble / draws.length
    assert(top > 0.1, s"rank-0 frequency $top") // rank 0 dominates under zipf(1.2)
  }
}
