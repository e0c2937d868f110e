package repro.graphgen

import org.apache.spark.sql.SparkSession
import scala.util.Random

import repro.core.{AttributedGraph, LocalGraph}

/** Deterministic synthetic attributed graphs shaped like the paper's three
  * evaluation datasets (MovieLens / DBLP / Yelp; DESIGN.md §4 documents the
  * substitution). Each generator:
  *
  *  - reproduces the dataset's type structure (node/edge types of Table 1),
  *  - uses zipf-skewed degrees so walks meet hubs (this drives the
  *    PHASE vs PHASE_opt cost gap of Table 2),
  *  - plants attribute correlations so hypothesis sub-populations genuinely
  *    differ from the global mean (otherwise every sampler trivially agrees
  *    and Table 3 saturates),
  *  - guarantees every node has at least one edge (paper §2.1 assumption).
  *
  * `scale = 1.0` is bench scale; tests use `scale ≈ 0.05`. All randomness
  * flows from the `seed` argument, so (scale, seed) fully determines G.
  *
  * Each generator writes its graph straight into a [[LocalGraph.Builder]]:
  * node ids are the indices 0 to |V|-1, and every attribute value goes into
  * its key's double or string column, so no row is a tuple or a map. The
  * result is [[AttributedGraph.fromLocal]] of the built graph.
  */
object GraphGen {

  /** Draw from {0..n-1} with probability ∝ 1/(rank+1)^alpha. */
  final class Zipf(n: Int, alpha: Double, rng: Random) {
    private val cum = new Array[Double](n)
    locally {
      var acc = 0.0
      var i = 0
      while (i < n) { acc += 1.0 / math.pow(i + 1.0, alpha); cum(i) = acc; i += 1 }
    }
    private val total = cum(n - 1)
    def draw(): Int = {
      val u = rng.nextDouble() * total
      val k = java.util.Arrays.binarySearch(cum, u)
      if (k >= 0) k else math.min(n - 1, -k - 1)
    }
  }

  private def pick[A](rng: Random, xs: (A, Double)*): A = {
    var total = 0.0
    xs.foreach(x => total += x._2)
    var u = rng.nextDouble() * total
    val it = xs.iterator
    while (it.hasNext) { val (x, w) = it.next(); u -= w; if (u <= 0) return x }
    xs.last._1
  }

  /** Clamped rounded gaussian. */
  private def gauss(rng: Random, mean: Double, sd: Double, lo: Double, hi: Double): Double =
    math.max(lo, math.min(hi, mean + rng.nextGaussian() * sd))

  // ---------------------------------------------------------------- MovieLens

  /** Bipartite user/movie graph with `rates(rating)` edges.
    * Planted: documentaries rate high (~4.2), horror low (~2.9); pre-1980
    * movies get +0.3; older users rate slightly higher.
    */
  def movieLens(spark: SparkSession, scale: Double = 1.0, seed: Long = 41): AttributedGraph = {
    val rng = new Random(seed)
    val nU = math.max(20, (2000 * scale).toInt)
    val nM = math.max(15, (1200 * scale).toInt)
    val nE = math.max(200, (60000 * scale).toInt)

    val genres = Seq("action" -> 3.5, "comedy" -> 3.4, "drama" -> 3.6,
      "documentary" -> 4.2, "horror" -> 2.9)
    val genreWeights = genres.map { case (n, _) => (n, if (n == "documentary") 0.08 else 0.23) }
    val genreMean = genres.toMap

    val b = new LocalGraph.Builder(nU + nM)
    val nodes = b.nodes
    val user = nodes.typeCode("user")
    val (age, gender) = (nodes.num("age"), nodes.str("gender"))
    val userAge = new Array[Double](nU)
    for (i <- 0 until nU) {
      nodes.setType(i, user)
      userAge(i) = gauss(rng, 38, 12, 18, 75)
      age(i) = userAge(i)
      gender(i) = if (rng.nextDouble() < 0.55) "M" else "F"
    }
    val movie = nodes.typeCode("movie")
    val (genre, year) = (nodes.str("genre"), nodes.num("year"))
    val movieMean = new Array[Double](nM) // the genre mean plus the pre-1980 bonus
    for (i <- 0 until nM) {
      val g = pick(rng, genreWeights: _*)
      val y = (1950 + rng.nextInt(71)).toDouble
      nodes.setType(nU + i, movie)
      genre(nU + i) = g
      year(nU + i) = y
      movieMean(i) = genreMean(g) + (if (y < 1980) 0.3 else 0.0)
    }

    val userZ = new Zipf(nU, 0.8, rng)
    val movieZ = new Zipf(nM, 0.9, rng)
    val rates = b.edges.typeCode("rates")
    val rating = b.edges.num("rating")
    var e = 0
    while (e < nE) {
      val u = userZ.draw()
      val m = movieZ.draw()
      val base = movieMean(m) + (userAge(u) - 38) * 0.004
      val r = math.max(0.5, math.min(5.0, math.round(2 * gauss(rng, base, 0.9, 0.5, 5.0)) / 2.0))
      rating(b.addEdge(u, nU + m, rates)) = r
      e += 1
    }
    // Every node gets an edge (§2.1).
    for (i <- b.isolated()) {
      val edge = if (i < nU) b.addEdge(i, nU + rng.nextInt(nM), rates) else b.addEdge(rng.nextInt(nU), i, rates)
      rating(edge) = 3.0
    }
    AttributedGraph.fromLocal(spark, b.result())
  }

  // -------------------------------------------------------------------- DBLP

  /** Four node types (author/paper/venue/fos) and four edge types
    * (Authorship: paper→author, PublishedIn: paper→venue,
    * WithDomain(weight): paper→fos, Cites: paper→paper).
    *
    * Planted: conference papers out-cite journal papers; papers with an
    * MSR-affiliated author get a strong citation boost, ChineseInst a
    * moderate one; the DM topic boosts both citations and FOS weight.
    * Author productivity and citation in-degree are zipf (hubs).
    */
  def dblp(spark: SparkSession, scale: Double = 1.0, seed: Long = 42): AttributedGraph = {
    val rng = new Random(seed)
    val nA = math.max(40, (12000 * scale).toInt)
    val nP = math.max(60, (20000 * scale).toInt)
    val nV = math.max(6, (300 * scale).toInt)
    val nF = math.max(8, (200 * scale).toInt)
    // Node indices: authors, then papers, venues and fos.
    val (p0, v0, f0) = (nA, nA + nP, nA + nP + nV)

    val affs = Seq("Other" -> 0.70, "ChineseInst" -> 0.15, "MIT" -> 0.10, "MSR" -> 0.05)
    val topics = Seq("DM", "DB", "ML", "IR", "OS", "PL", "HCI", "SEC")

    val b = new LocalGraph.Builder(nA + nP + nV + nF)
    val nodes = b.nodes
    val Seq(author, paper, venue, fos) = Seq("author", "paper", "venue", "fos").map(nodes.typeCode)
    val affiliation = nodes.str("affiliation")
    val authorAff = new Array[String](nA)
    for (i <- 0 until nA) {
      authorAff(i) = pick(rng, affs: _*)
      nodes.setType(i, author)
      affiliation(i) = authorAff(i)
    }
    val vtype = nodes.str("vtype")
    val venueType = new Array[String](nV)
    for (i <- 0 until nV) {
      venueType(i) = if (rng.nextDouble() < 0.6) "conference" else "journal"
      nodes.setType(v0 + i, venue)
      vtype(v0 + i) = venueType(i)
    }
    val topic = nodes.str("topic")
    val fosTopic = new Array[String](nF)
    for (i <- 0 until nF) {
      fosTopic(i) = topics(rng.nextInt(topics.length))
      nodes.setType(f0 + i, fos)
      topic(f0 + i) = fosTopic(i)
    }

    val authorZ = new Zipf(nA, 1.1, rng)
    val venueZ = new Zipf(nV, 0.9, rng)
    val fosZ = new Zipf(nF, 0.8, rng)
    val citeZ = new Zipf(nP, 1.2, rng)

    val (year, citation, venueTypeCol) = (nodes.num("year"), nodes.num("citation"), nodes.str("venue_type"))
    val Seq(authorship, publishedIn, withDomain, cites) =
      Seq("Authorship", "PublishedIn", "WithDomain", "Cites").map(b.edges.typeCode)
    val weight = b.edges.num("weight")

    var p = 0
    while (p < nP) {
      val pid = p0 + p
      val v = venueZ.draw()
      val vt = venueType(v)
      val nAuth = 1 + rng.nextInt(4)
      val auth = Seq.fill(nAuth)(authorZ.draw()).distinct
      val f1 = fosZ.draw()
      val t = fosTopic(f1)
      val y = (1990 + rng.nextInt(34)).toDouble
      // Planted citation model: conference +, MSR ++, ChineseInst +, DM +.
      val boost =
        (if (vt == "conference") 18.0 else 0.0) +
        (if (auth.exists(a => authorAff(a) == "MSR")) 60.0 else 0.0) +
        (if (auth.exists(a => authorAff(a) == "ChineseInst")) 25.0 else 0.0) +
        (if (t == "DM") 15.0 else 0.0)
      nodes.setType(pid, paper)
      year(pid) = y
      citation(pid) = math.floor(-math.log(1.0 - rng.nextDouble()) * (12.0 + boost))
      venueTypeCol(pid) = vt
      auth.foreach(a => b.addEdge(pid, a, authorship))
      b.addEdge(pid, v0 + v, publishedIn)
      val w1 = math.min(1.0, math.max(0.05,
        gauss(rng, if (vt == "conference" && t == "DM") 0.72 else 0.45, 0.18, 0.05, 1.0)))
      weight(b.addEdge(pid, f0 + f1, withDomain)) = w1
      if (rng.nextDouble() < 0.5) {
        val f2 = fosZ.draw()
        if (f2 != f1) {
          val w2 = math.min(1.0, math.max(0.05, gauss(rng, 0.35, 0.15, 0.05, 1.0)))
          weight(b.addEdge(pid, f0 + f2, withDomain)) = w2
        }
      }
      val nCites = rng.nextInt(6)
      var c = 0
      while (c < nCites) {
        val q = citeZ.draw()
        if (q != p) b.addEdge(pid, p0 + q, cites)
        c += 1
      }
      p += 1
    }

    // Every node gets an edge (§2.1); a paper always has an author.
    for (i <- b.isolated()) {
      if (i < p0) b.addEdge(p0 + rng.nextInt(nP), i, authorship)
      else if (i >= f0) weight(b.addEdge(p0 + rng.nextInt(nP), i, withDomain)) = 0.3
      else if (i >= v0) b.addEdge(p0 + rng.nextInt(nP), i, publishedIn)
    }
    AttributedGraph.fromLocal(spark, b.result())
  }

  // -------------------------------------------------------------------- Yelp

  /** Bipartite user/business graph with `review(stars, useful)` edges.
    * Planted: fastfood businesses review high (~4.3 — the paper's "fast food
    * average ratings exceed 4" hypothesis), sushi low (~3.1); elite users
    * are slightly harsher; business popularity is zipf.
    */
  def yelp(spark: SparkSession, scale: Double = 1.0, seed: Long = 43): AttributedGraph = {
    val rng = new Random(seed)
    val nU = math.max(30, (20000 * scale).toInt)
    val nB = math.max(20, (5000 * scale).toInt)
    val nE = math.max(300, (100000 * scale).toInt)

    val cats = Seq("restaurant" -> 0.40, "coffee" -> 0.18, "bar" -> 0.14,
      "pizza" -> 0.12, "sushi" -> 0.07, "gym" -> 0.05, "fastfood" -> 0.04)
    val catMean = Map("restaurant" -> 3.6, "coffee" -> 3.8, "bar" -> 3.5,
      "pizza" -> 3.7, "sushi" -> 3.1, "gym" -> 3.4, "fastfood" -> 4.3)
    val cities = (1 to 10).map(i => s"city$i")

    val b = new LocalGraph.Builder(nU + nB)
    val nodes = b.nodes
    val user = nodes.typeCode("user")
    val (fans, elite) = (nodes.num("fans"), nodes.str("elite"))
    val userElite = new Array[Boolean](nU)
    for (i <- 0 until nU) {
      userElite(i) = rng.nextDouble() < 0.08
      // Planted: elite users have markedly more fans (node hypothesis Y-N1).
      val fanScale = if (userElite(i)) 14.0 else 4.0
      nodes.setType(i, user)
      fans(i) = math.floor(-math.log(1.0 - rng.nextDouble()) * fanScale)
      elite(i) = if (userElite(i)) "yes" else "no"
    }
    val business = nodes.typeCode("business")
    val (category, city, state, checkins) =
      (nodes.str("category"), nodes.str("city"), nodes.str("state"), nodes.num("checkins"))
    val bizMean = new Array[Double](nB) // the mean stars of the business's category
    for (i <- 0 until nB) {
      val cat = pick(rng, cats: _*)
      bizMean(i) = catMean(cat)
      // Planted: fastfood sees far more checkins (node hypothesis Y-N2).
      val k = math.floor(-math.log(1.0 - rng.nextDouble()) * (if (cat == "fastfood") 55.0 else 20.0))
      nodes.setType(nU + i, business)
      category(nU + i) = cat
      city(nU + i) = cities(rng.nextInt(cities.length))
      state(nU + i) = if (rng.nextDouble() < 0.5) "A" else "B"
      checkins(nU + i) = k
    }

    val userZ = new Zipf(nU, 0.9, rng)
    val bizZ = new Zipf(nB, 1.0, rng)
    val review = b.edges.typeCode("review")
    val (stars, useful) = (b.edges.num("stars"), b.edges.num("useful"))
    var e = 0
    while (e < nE) {
      val u = userZ.draw()
      val z = bizZ.draw()
      val base = bizMean(z) - (if (userElite(u)) 0.25 else 0.0)
      val s = math.max(1.0, math.min(5.0, math.round(gauss(rng, base, 0.8, 1.0, 5.0)).toDouble))
      val edge = b.addEdge(u, nU + z, review)
      stars(edge) = s
      useful(edge) = math.floor(-math.log(1.0 - rng.nextDouble()) * 3.0)
      e += 1
    }
    // Every node gets an edge (§2.1).
    for (i <- b.isolated()) {
      val edge = if (i < nU) b.addEdge(i, nU + rng.nextInt(nB), review) else b.addEdge(rng.nextInt(nU), i, review)
      stars(edge) = 3.0
      useful(edge) = 0.0
    }
    AttributedGraph.fromLocal(spark, b.result())
  }
}
