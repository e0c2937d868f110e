package perfbench

/** A fixed piece of work, owned by the benchmark and independent of the
  * program, that the timed loop runs once after every operation to measure
  * how fast the machine is during the run.
  *
  * On a shared host the same code runs up to 1.8x slower or faster for
  * minutes at a time, and the slowdown hits every operation of a pass
  * alike. The benchmark therefore reports its operation times at a fixed
  * reference speed: wall-clock time x `nominalMs` / (median slice time of
  * the operation's pass).
  *
  * A slice is what the program's hottest sampler (ShortestPathS) does: a
  * breadth-first search with a boxed `ArrayDeque` over a random CSR graph,
  * here 2^17 nodes of out-degree 10, stopped after 3000 nodes. The graph and
  * the start nodes come from fixed seeds, so every run does the same work.
  */
object SpeedReference {

  /** Slice time, in ms, at which reported times equal wall-clock times. */
  val nominalMs = 0.25

  /** Slices run before the first pass, so that the kernel is compiled. */
  val warmUpSlices = 300

  private val n = 1 << 17
  private val degree = 10
  private val visits = 3000
  private val nbr: Array[Int] = {
    val r = new java.util.SplittableRandom(7)
    Array.fill(n * degree)(r.nextInt(n))
  }
  private val visited = new Array[Int](n)
  private val parent = new Array[Int](n)
  private val starts = new java.util.SplittableRandom(11)
  private var epoch = 0
  private var sink = 0L

  /** Runs one slice and returns its wall-clock time in ms. */
  def slice(): Double = {
    val t0 = System.nanoTime()
    epoch += 1
    val s = starts.nextInt(n)
    val queue = new java.util.ArrayDeque[Integer]()
    visited(s) = epoch; parent(s) = -1
    queue.add(s)
    var seen = 0
    while (!queue.isEmpty && seen < visits) {
      val v = queue.poll().intValue()
      var h = v * degree
      while (h < (v + 1) * degree) {
        val u = nbr(h)
        if (visited(u) != epoch) { visited(u) = epoch; parent(u) = v; queue.add(u); seen += 1 }
        h += 1
      }
    }
    sink += seen + parent(s)
    (System.nanoTime() - t0) / 1e6
  }
}
