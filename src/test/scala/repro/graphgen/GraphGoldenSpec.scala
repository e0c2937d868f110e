package repro.graphgen

import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import repro.SparkSpec
import repro.core.{AttributedGraph, LocalGraph}

/** Pins every generated graph to a hash recorded once. Each hash covers the
  * ids, both type tables, every type, endpoint and CSR array, and every
  * attribute cell: the column names and, per row, the (key, value) pairs
  * `nodeCols.row`/`edgeCols.row` give, so the order of a string column's
  * dictionary does not count. A change that is meant to generate the same
  * graphs must pass this suite unchanged.
  */
class GraphGoldenSpec extends SparkSpec {

  private def digest(g: LocalGraph): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def long(x: Long): Unit = md.update(ByteBuffer.allocate(8).putLong(x).array())
    def str(s: String): Unit = { val b = s.getBytes(UTF_8); long(b.length.toLong); md.update(b) }
    def ints(xs: Array[Int]): Unit = { long(xs.length.toLong); xs.foreach(x => long(x.toLong)) }
    def strs(xs: Array[String]): Unit = { long(xs.length.toLong); xs.foreach(str) }
    def cells(names: Array[String], rows: Int, row: Int => Map[String, Any]): Unit = {
      strs(names)
      for (i <- 0 until rows) {
        val m = row(i)
        long(m.size.toLong)
        for (k <- m.keys.toSeq.sorted) {
          str(k)
          m(k) match {
            case d: java.lang.Double => long(1); long(java.lang.Double.doubleToRawLongBits(d))
            case s: String           => long(2); str(s)
          }
        }
      }
    }
    long(g.ids.length.toLong); g.ids.foreach(long)
    strs(g.ntypes); ints(g.ntypeOf)
    strs(g.etypes); ints(g.edgeSrc); ints(g.edgeDst); ints(g.etypeOf)
    ints(g.adjOff); ints(g.adjNbr); ints(g.adjEdge); ints(Array.tabulate(g.adjNbr.length)(h => if (g.adjFwd(h)) 1 else 0))
    cells(g.nodeCols.names, g.numNodes, g.nodeCols.row)
    cells(g.edgeCols.names, g.numEdges, g.edgeCols.row)
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  // (dataset, scale, seed or None for the default, hash)
  private val cases: Seq[(String, Double, Option[Long], String)] = Seq(
    ("MovieLens", 0.05, None, "b44d01f0d88be5c9"),
    ("DBLP", 0.05, None, "2ecd555241de664e"),
    ("Yelp", 0.05, None, "b994c2f80c10e6f4"),
    ("MovieLens", 0.25, Some(7L), "d29dad34b3755590"),
    ("DBLP", 0.25, Some(8L), "07e0bc77da1feb9d"),
    ("Yelp", 0.25, Some(9L), "3ba35040dc862c7b"))

  private def generate(name: String, scale: Double, seed: Option[Long]): AttributedGraph = name match {
    case "MovieLens" => seed.fold(GraphGen.movieLens(spark, scale))(GraphGen.movieLens(spark, scale, _))
    case "DBLP"      => seed.fold(GraphGen.dblp(spark, scale))(GraphGen.dblp(spark, scale, _))
    case "Yelp"      => seed.fold(GraphGen.yelp(spark, scale))(GraphGen.yelp(spark, scale, _))
  }

  for ((name, scale, seed, want) <- cases)
    test(s"$name at scale $scale, seed ${seed.fold("default")(_.toString)}, matches its recorded hash") {
      val got = digest(LocalGraph.fromAttributed(generate(name, scale, seed)))
      assert(got == want, s"$name $scale $seed: $got")
    }
}
