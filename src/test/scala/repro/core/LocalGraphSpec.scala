package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graphgen.GraphGen

/** CSR mirror correctness: degrees, half-edge direction/type, labels. */
class LocalGraphSpec extends SparkSpec {

  private lazy val g = TestGraphs.tinyLocal

  test("counts survive the collect") {
    assert(g.numNodes == 10)
    assert(g.numEdges == 12)
  }
  test("indexOf round-trips external ids") {
    for (id <- Seq(1L, 2L, 3L, 11L, 12L, 13L, 21L, 22L, 31L, 32L)) {
      val i = g.indexOf(id)
      assert(i >= 0 && g.ids(i) == id)
    }
    assert(g.indexOf(999L) == -1)
  }
  test("degrees match the DataFrame computation") {
    val dfDeg = Degrees.of(TestGraphs.tiny).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    for (i <- 0 until g.numNodes)
      assert(g.degree(i) == dfDeg(g.ids(i)), s"degree mismatch at node ${g.ids(i)}")
  }
  test("every directed edge appears as one forward and one reverse half-edge") {
    var fwd = 0
    var rev = 0
    for (h <- g.adjNbr.indices) if (g.adjFwd(h)) fwd += 1 else rev += 1
    assert(fwd == g.numEdges && rev == g.numEdges)
  }
  test("half-edges connect the stored endpoints") {
    for (v <- 0 until g.numNodes; h <- g.adjOff(v) until g.adjOff(v + 1)) {
      val e = g.adjEdge(h)
      val u = g.adjNbr(h)
      if (g.adjFwd(h)) assert(g.edgeSrc(e) == v && g.edgeDst(e) == u)
      else assert(g.edgeDst(e) == v && g.edgeSrc(e) == u)
    }
  }
  test("node attributes preserved") {
    val p1 = g.indexOf(11L)
    assert(g.nodeType(p1) == "paper")
    assert(Attr.num(g.nodeCols.row(p1)("citation")).contains(100.0))
    assert(g.nodeCols.row(p1)("venue_type") == "conference")
  }
  test("edge attributes preserved") {
    val withW = (0 until g.numEdges).filter(e => g.edgeType(e) == "WithDomain")
    assert(withW.size == 3)
    val weights = withW.map(e => Attr.num(g.edgeCols.row(e)("weight")).get).sorted
    assert(weights == Seq(0.4, 0.6, 0.9))
  }
  test("absent attributes dropped from maps") {
    val a1 = g.indexOf(1L)
    assert(!g.nodeCols.row(a1).contains("citation"))
  }
  test("matches applies modifiers") {
    val conf = Modifier("paper", Seq(AttrPred("venue_type", CmpOp.Eq, "conference")))
    assert(g.matches(g.indexOf(11L), conf))
    assert(!g.matches(g.indexOf(12L), conf))
    assert(!g.matches(g.indexOf(1L), conf))
  }
  test("labels precomputes one bitmap per path position") {
    val path = PathSpec(
      Vector(Modifier("author"), Modifier("paper"), Modifier("author")),
      Vector(PathStep("Authorship", reversed = true), PathStep("Authorship")))
    val lab = g.labels(path)
    assert(lab.length == 3)
    assert(lab(0).count(identity) == 3) // three authors
    assert(lab(1).count(identity) == 3) // three papers
  }
  test("labels share one cached mask per graph and modifier") {
    val path = PathSpec(
      Vector(Modifier("author"), Modifier("paper"), Modifier("author")),
      Vector(PathStep("Authorship", reversed = true), PathStep("Authorship")))
    val lab = g.labels(path)
    assert(lab(0) eq lab(2))
    assert(g.labels(path)(1) eq lab(1))
    val papers = PathSpec(Vector(Modifier("paper")), Vector.empty)
    assert(g.labels(papers)(0) eq lab(1))
    val tiny = TestGraphs.tiny
    val other = ReferenceCollect(AttributedGraph(tiny.nodes, tiny.edges)).labels(papers)(0)
    assert(!(other eq lab(1)) && other.sameElements(lab(1)))
  }
  test("halfEdgeMatches respects type and direction") {
    val a1 = g.indexOf(1L)
    val auth = g.etypes.indexOf("Authorship")
    // From a1, Authorship edges are stored paper->author: traversal is reverse.
    for (h <- g.adjOff(a1) until g.adjOff(a1 + 1)) {
      assert(g.halfEdgeMatches(h, PathStep("Authorship", reversed = true), auth))
      assert(!g.halfEdgeMatches(h, PathStep("Authorship", reversed = false), auth))
    }
  }
  /** A graph of 30 nodes and edges of four types: random edges, a fifth of
    * them repeated (multi-edges), and a self-loop on every fourth node.
    */
  private def handBuilt(seed: Int): LocalGraph = {
    val rng = new scala.util.Random(seed)
    val n = 30
    val b = new LocalGraph.Builder(n)
    val node = b.nodes.typeCode("node")
    (0 until n).foreach(b.nodes.setType(_, node))
    val types = (0 until 4).map(t => b.edges.typeCode(s"r$t"))
    val random = Seq.fill(100)((rng.nextInt(n), rng.nextInt(n)))
    for ((s, d) <- random ++ random.take(20) ++ (0 until n by 4).map(v => (v, v)))
      b.addEdge(s, d, types(rng.nextInt(types.length)))
    b.result()
  }

  test("each half-edge's code is 2·type + direction, and halfEdgeMatches reads type and direction from it") {
    val scale1 = Seq(
      "MovieLens" -> GraphGen.movieLens(spark, scale = 1.0),
      "DBLP" -> GraphGen.dblp(spark, scale = 1.0),
      "Yelp" -> GraphGen.yelp(spark, scale = 1.0)).map { case (d, ag) => d -> LocalGraph.fromAttributed(ag) }
    for ((name, g) <- (1 to 3).map(s => s"hand-built $s" -> handBuilt(s)) ++ scale1) {
      // The forward half-edge of an edge is the first of its half-edges in
      // its source's row (a self-loop has both there).
      val seen = new java.util.BitSet(g.numEdges)
      var bad = 0
      for (v <- 0 until g.numNodes; h <- g.adjOff(v) until g.adjOff(v + 1)) {
        val e = g.adjEdge(h)
        val fwd = g.edgeSrc(e) == v && !seen.get(e)
        if (g.edgeSrc(e) == v) seen.set(e)
        if (g.adjCode(h) != 2 * g.etypeOf(e) + (if (fwd) 1 else 0) || g.adjFwd(h) != fwd) bad += 1
        for (t <- -1 to g.etypes.length; r <- Seq(false, true))
          if (g.halfEdgeMatches(h, PathStep("any", reversed = r), t) != (g.etypeOf(e) == t && fwd != r)) bad += 1
      }
      assert(bad == 0, s"$name: $bad mismatches")
      assert(seen.cardinality == g.numEdges, name)
    }
  }

  test("every row lists its half-edges in edge order, a self-loop's two halves side by side") {
    import spark.implicits._
    val collected = ReferenceCollect(AttributedGraph(
      Seq((1L, "a"), (2L, "a"), (3L, "b")).toDF("id", "ntype"),
      Seq((1L, 2L, "r"), (3L, 3L, "r"), (2L, 1L, "s"), (1L, 2L, "r"), (1L, 1L, "s"), (3L, 1L, "r"))
        .toDF("src", "dst", "etype")))
    val graphs = Seq("MovieLens" -> TestGraphs.mlSmallLocal, "DBLP" -> TestGraphs.dblpSmallLocal,
      "Yelp" -> TestGraphs.yelpSmallLocal, "collected" -> collected,
      "multi-edges" -> TestGraphs.fromEdges(4, Seq((0, 1), (1, 0), (0, 1), (2, 2), (0, 2), (2, 2), (3, 0), (0, 0)))) ++
      (1 to 3).map(s => s"hand-built $s" -> handBuilt(s))
    for ((name, g) <- graphs; v <- 0 until g.numNodes; h <- g.adjOff(v) until g.adjOff(v + 1)) {
      val e = g.adjEdge(h)
      if (h > g.adjOff(v)) assert(g.adjEdge(h - 1) <= e, s"$name: node $v's row at $h")
      if (g.edgeSrc(e) == v && g.edgeDst(e) == v)
        assert((h > g.adjOff(v) && g.adjEdge(h - 1) == e) || (h + 1 < g.adjOff(v + 1) && g.adjEdge(h + 1) == e),
          s"$name: self-loop $e at node $v")
    }
    assert(collected.numEdges == 6 && collected.degree(collected.indexOf(3L)) == 3)
  }

  test("a graph may have 64 edge types, not 65") {
    def build(types: Int): LocalGraph = {
      val b = new LocalGraph.Builder(2)
      val node = b.nodes.typeCode("node")
      b.nodes.setType(0, node); b.nodes.setType(1, node)
      for (t <- 0 until types) b.addEdge(0, 1, b.edges.typeCode(s"r$t"))
      b.result()
    }
    val g = build(64)
    // Edge 63 is of type 63: codes 127 forward and 126 back.
    assert(g.adjCode(g.adjOff(0) + 63) == 127 && g.adjCode(g.adjOff(1) + 63) == 126)
    assert(g.halfEdgeMatches(g.adjOff(0) + 63, PathStep("r63"), 63))
    assert(g.halfEdgeMatches(g.adjOff(1) + 63, PathStep("r63", reversed = true), 63))
    val e = intercept[IllegalArgumentException](build(65))
    assert(e.getMessage.contains("65 edge types"), e.getMessage)
  }

  test("generated graph CSR is consistent") {
    val lg = TestGraphs.dblpSmallLocal
    assert(lg.adjOff(lg.numNodes) == 2 * lg.numEdges)
    // Spot-check 100 half-edges.
    val rng = new scala.util.Random(5)
    for (_ <- 1 to 100) {
      val h = rng.nextInt(lg.adjNbr.length)
      val e = lg.adjEdge(h)
      assert(lg.adjNbr(h) == (if (lg.adjFwd(h)) lg.edgeDst(e) else lg.edgeSrc(e)))
    }
  }
  test("the collect rejects an attribute column that is neither double nor string, by name") {
    import spark.implicits._
    val nodes = Seq((1L, "a", 5), (2L, "a", 6)).toDF("id", "ntype", "rank")
    val edges = Seq((1L, 2L, "r", 7L)).toDF("src", "dst", "etype", "count")
    val onNodes = intercept[IllegalArgumentException] {
      ReferenceCollect(AttributedGraph(nodes, edges.drop("count")))
    }
    assert(onNodes.getMessage.contains("\"rank\""), onNodes.getMessage)
    val onEdges = intercept[IllegalArgumentException] {
      ReferenceCollect(AttributedGraph(nodes.drop("rank"), edges))
    }
    assert(onEdges.getMessage.contains("\"count\""), onEdges.getMessage)
  }
  test("SampledGraph membership") {
    val s = SampledGraph(Array(1, 3, 5))
    assert(s.size == 3)
    assert(s.contains(3) && !s.contains(2))
  }
}
