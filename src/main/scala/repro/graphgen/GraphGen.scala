package repro.graphgen

import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import repro.core.AttributedGraph

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
    val total = xs.map(_._2).sum
    var u = rng.nextDouble() * total
    for ((x, w) <- xs) { u -= w; if (u <= 0) return x }
    xs.last._1
  }

  /** Clamped rounded gaussian. */
  private def gauss(rng: Random, mean: Double, sd: Double, lo: Double, hi: Double): Double =
    math.max(lo, math.min(hi, mean + rng.nextGaussian() * sd))

  /** Ensure every node appears in at least one edge by attaching isolated
    * nodes to a random already-connected node with the given edge type.
    * Node ids are 0 to |V|-1.
    */
  private def connect(
      rng: Random,
      nodes: Seq[(Long, String, Map[String, Any])],
      edges: ArrayBuffer[(Long, Long, String, Map[String, Any])],
      attach: Map[String, (Long, String) => (Long, Long, String, Map[String, Any])]): Unit = {
    val touched = new java.util.BitSet(nodes.length)
    edges.foreach { e => touched.set(e._1.toInt); touched.set(e._2.toInt) }
    nodes.foreach { case (id, t, _) =>
      if (!touched.get(id.toInt))
        attach.get(t).foreach { f => edges += f(id, t); touched.set(id.toInt) }
    }
  }

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

    val users = (0 until nU).map { i =>
      (i.toLong, "user", Map[String, Any](
        "age" -> gauss(rng, 38, 12, 18, 75),
        "gender" -> (if (rng.nextDouble() < 0.55) "M" else "F")))
    }
    val movieGenre = new Array[String](nM)
    val movieYear = new Array[Double](nM)
    val movies = (0 until nM).map { i =>
      val g = pick(rng, genres.map { case (n, _) => (n, if (n == "documentary") 0.08 else 0.23) }: _*)
      movieGenre(i) = g
      movieYear(i) = (1950 + rng.nextInt(71)).toDouble
      ((nU + i).toLong, "movie", Map[String, Any]("genre" -> g, "year" -> movieYear(i)))
    }

    val userZ = new Zipf(nU, 0.8, rng)
    val movieZ = new Zipf(nM, 0.9, rng)
    val genreMean = genres.toMap
    val edges = ArrayBuffer.empty[(Long, Long, String, Map[String, Any])]
    var e = 0
    while (e < nE) {
      val u = userZ.draw()
      val m = movieZ.draw()
      val age = users(u)._3("age").asInstanceOf[Double]
      val base = genreMean(movieGenre(m)) +
        (if (movieYear(m) < 1980) 0.3 else 0.0) +
        (age - 38) * 0.004
      val rating = math.max(0.5, math.min(5.0, math.round(2 * gauss(rng, base, 0.9, 0.5, 5.0)) / 2.0))
      edges += ((u.toLong, (nU + m).toLong, "rates", Map[String, Any]("rating" -> rating)))
      e += 1
    }
    val all = users ++ movies
    connect(rng, all, edges, Map(
      "user"  -> ((id, _) => (id, (nU + rng.nextInt(nM)).toLong, "rates",
        Map[String, Any]("rating" -> 3.0))),
      "movie" -> ((id, _) => (rng.nextInt(nU).toLong, id, "rates",
        Map[String, Any]("rating" -> 3.0)))))
    AttributedGraph.fromTuples(spark, all, edges.toSeq)
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

    val affs = Seq("Other" -> 0.70, "ChineseInst" -> 0.15, "MIT" -> 0.10, "MSR" -> 0.05)
    val topics = Seq("DM", "DB", "ML", "IR", "OS", "PL", "HCI", "SEC")

    val authorAff = new Array[String](nA)
    val authors = (0 until nA).map { i =>
      authorAff(i) = pick(rng, affs: _*)
      (i.toLong, "author", Map[String, Any]("affiliation" -> authorAff(i)))
    }
    val venueType = new Array[String](nV)
    val venues = (0 until nV).map { i =>
      venueType(i) = if (rng.nextDouble() < 0.6) "conference" else "journal"
      ((nA + nP + i).toLong, "venue", Map[String, Any]("vtype" -> venueType(i)))
    }
    val fosTopic = new Array[String](nF)
    val foss = (0 until nF).map { i =>
      fosTopic(i) = topics(rng.nextInt(topics.length))
      ((nA + nP + nV + i).toLong, "fos", Map[String, Any]("topic" -> fosTopic(i)))
    }

    val authorZ = new Zipf(nA, 1.1, rng)
    val venueZ = new Zipf(nV, 0.9, rng)
    val fosZ = new Zipf(nF, 0.8, rng)
    val citeZ = new Zipf(nP, 1.2, rng)

    val edges = ArrayBuffer.empty[(Long, Long, String, Map[String, Any])]
    val papers = ArrayBuffer.empty[(Long, String, Map[String, Any])]

    var p = 0
    while (p < nP) {
      val pid = (nA + p).toLong
      val v = venueZ.draw()
      val vt = venueType(v)
      val nAuth = 1 + rng.nextInt(4)
      val auth = Seq.fill(nAuth)(authorZ.draw()).distinct
      val f1 = fosZ.draw()
      val topic = fosTopic(f1)
      val year = (1990 + rng.nextInt(34)).toDouble
      // Planted citation model: conference +, MSR ++, ChineseInst +, DM +.
      val boost =
        (if (vt == "conference") 18.0 else 0.0) +
        (if (auth.exists(a => authorAff(a) == "MSR")) 60.0 else 0.0) +
        (if (auth.exists(a => authorAff(a) == "ChineseInst")) 25.0 else 0.0) +
        (if (topic == "DM") 15.0 else 0.0)
      val citation = math.floor(-math.log(1.0 - rng.nextDouble()) * (12.0 + boost))
      papers += ((pid, "paper", Map[String, Any](
        "year" -> year, "citation" -> citation, "venue_type" -> vt)))
      auth.foreach(a => edges += ((pid, a.toLong, "Authorship", Map.empty[String, Any])))
      edges += ((pid, (nA + nP + v).toLong, "PublishedIn", Map.empty[String, Any]))
      val w1 = math.min(1.0, math.max(0.05,
        gauss(rng, if (vt == "conference" && topic == "DM") 0.72 else 0.45, 0.18, 0.05, 1.0)))
      edges += ((pid, (nA + nP + nV + f1).toLong, "WithDomain", Map[String, Any]("weight" -> w1)))
      if (rng.nextDouble() < 0.5) {
        val f2 = fosZ.draw()
        if (f2 != f1) {
          val w2 = math.min(1.0, math.max(0.05, gauss(rng, 0.35, 0.15, 0.05, 1.0)))
          edges += ((pid, (nA + nP + nV + f2).toLong, "WithDomain", Map[String, Any]("weight" -> w2)))
        }
      }
      val nCites = rng.nextInt(6)
      var c = 0
      while (c < nCites) {
        val q = citeZ.draw()
        if (q != p) edges += ((pid, (nA + q).toLong, "Cites", Map.empty[String, Any]))
        c += 1
      }
      p += 1
    }

    val all = authors ++ papers ++ venues ++ foss
    connect(rng, all, edges, Map(
      "author" -> ((id, _) => ((nA + rng.nextInt(nP)).toLong, id, "Authorship", Map.empty[String, Any])),
      "venue"  -> ((id, _) => ((nA + rng.nextInt(nP)).toLong, id, "PublishedIn", Map.empty[String, Any])),
      "fos"    -> ((id, _) => ((nA + rng.nextInt(nP)).toLong, id, "WithDomain",
        Map[String, Any]("weight" -> 0.3)))))
    AttributedGraph.fromTuples(spark, all, edges.toSeq)
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

    val userElite = new Array[Boolean](nU)
    val users = (0 until nU).map { i =>
      userElite(i) = rng.nextDouble() < 0.08
      // Planted: elite users have markedly more fans (node hypothesis Y-N1).
      val fanScale = if (userElite(i)) 14.0 else 4.0
      (i.toLong, "user", Map[String, Any](
        "fans" -> math.floor(-math.log(1.0 - rng.nextDouble()) * fanScale),
        "elite" -> (if (userElite(i)) "yes" else "no")))
    }
    val bizCat = new Array[String](nB)
    val businesses = (0 until nB).map { i =>
      bizCat(i) = pick(rng, cats: _*)
      // Planted: fastfood sees far more checkins (node hypothesis Y-N2).
      val checkins = math.floor(-math.log(1.0 - rng.nextDouble()) *
        (if (bizCat(i) == "fastfood") 55.0 else 20.0))
      ((nU + i).toLong, "business", Map[String, Any](
        "category" -> bizCat(i), "city" -> cities(rng.nextInt(cities.length)),
        "state" -> (if (rng.nextDouble() < 0.5) "A" else "B"),
        "checkins" -> checkins))
    }

    val userZ = new Zipf(nU, 0.9, rng)
    val bizZ = new Zipf(nB, 1.0, rng)
    val edges = ArrayBuffer.empty[(Long, Long, String, Map[String, Any])]
    var e = 0
    while (e < nE) {
      val u = userZ.draw()
      val b = bizZ.draw()
      val base = catMean(bizCat(b)) - (if (userElite(u)) 0.25 else 0.0)
      val stars = math.max(1.0, math.min(5.0, math.round(gauss(rng, base, 0.8, 1.0, 5.0)).toDouble))
      edges += ((u.toLong, (nU + b).toLong, "review", Map[String, Any](
        "stars" -> stars, "useful" -> math.floor(-math.log(1.0 - rng.nextDouble()) * 3.0))))
      e += 1
    }
    val all = users ++ businesses
    connect(rng, all, edges, Map(
      "user" -> ((id, _) => (id, (nU + rng.nextInt(nB)).toLong, "review",
        Map[String, Any]("stars" -> 3.0, "useful" -> 0.0))),
      "business" -> ((id, _) => (rng.nextInt(nU).toLong, id, "review",
        Map[String, Any]("stars" -> 3.0, "useful" -> 0.0)))))
    AttributedGraph.fromTuples(spark, all, edges.toSeq)
  }
}
