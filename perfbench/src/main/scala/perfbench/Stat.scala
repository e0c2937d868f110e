package perfbench

/** Summary statistics shared by every metric the benchmark reports. */
object Stat {

  /** Percentiles the tail metric may use, lowest first. */
  val ladder: Seq[Double] = Seq(50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

  /** Nearest-rank position (1-based) of percentile `p` among `n` samples. */
  def rank(p: Double, n: Int): Int = math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** The tail percentile for `n` samples: the highest ladder percentile, not
    * above `cap`, that leaves at least 10 samples beyond it. None when even
    * the median leaves fewer than 10 (n < 20).
    *
    * The cap is fixed per workload so that a run which completes more
    * operations reports the same percentile, not a higher one.
    */
  def tailPercentile(n: Int, cap: Double = 99.9): Option[Double] =
    ladder.filter(p => p <= cap && n - rank(p, n) >= 10).lastOption

  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(rank(p, s.length) - 1)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50.0)

  /** Median, or 0 for a layer that did not run in this workload. */
  def medianOr0(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else median(xs)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** The tail value, which percentile it is ("max" when there are too few
    * samples for any percentile to have 10 beyond it), and how many samples
    * lie beyond it.
    */
  final case class Tail(value: Double, label: String, beyond: Int)

  def tail(xs: Seq[Double], cap: Double = 99.9): Tail =
    if (xs.isEmpty) Tail(0.0, "none", 0)
    else tailPercentile(xs.length, cap) match {
      case Some(p) => Tail(percentile(xs, p), s"p${fmtP(p)}", xs.length - rank(p, xs.length))
      case None    => Tail(xs.max, "max", 0)
    }

  def fmtP(p: Double): String = if (p == p.floor) p.toInt.toString else p.toString
}
