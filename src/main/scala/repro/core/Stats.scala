package repro.core

/** Self-contained statistics for the hypothesis-testing step (framework
  * Figure 2: "acceptance or rejection result, p-value, and confidence
  * interval"). The Student-t machinery (log-gamma, regularized incomplete
  * beta by continued fraction, CDF inversion by safeguarded Newton steps) is
  * implemented here and verified against known quantiles in `StatsSpec`.
  *
  * Spark ships commons-math3 3.6.1, so its `TDistribution` is on the
  * classpath too; it is not used because it is slower where every Avg
  * operation runs one t-test. On a 4-core Xeon (one JVM, the variants timed
  * interleaved over df 1–3000, after a warm-up round), a CDF plus a 0.975
  * quantile took 6–8 µs here against 20–24 µs there, a difference of about
  * 2% of a `grid` operation's median; the library's `Beta` and `Gamma` under
  * these Newton steps took 14–16 µs. The two implementations agree within
  * 1e-9 on the CDF and 1e-8 on the quantile for df up to 1e7.
  */
object Stats {

  /** Lanczos approximation of log Γ(x), x > 0. */
  def logGamma(x: Double): Double = {
    require(x > 0, s"logGamma domain: $x")
    val g = 7.0
    val coef = Array(
      0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) {
      // Reflection formula.
      math.log(math.Pi / math.sin(math.Pi * x)) - logGamma(1.0 - x)
    } else {
      val z = x - 1.0
      var a = coef(0)
      val t = z + g + 0.5
      var i = 1
      while (i < coef.length) { a += coef(i) / (z + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (z + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  /** Continued-fraction kernel for the incomplete beta (Numerical Recipes betacf). */
  private def betacf(a: Double, b: Double, x: Double): Double = {
    val MaxIter = 300
    val Eps = 3e-14
    val FpMin = 1e-300
    val qab = a + b; val qap = a + 1.0; val qam = a - 1.0
    var c = 1.0
    var d = 1.0 - qab * x / qap
    if (math.abs(d) < FpMin) d = FpMin
    d = 1.0 / d
    var h = d
    var m = 1
    var done = false
    while (m <= MaxIter && !done) {
      val m2 = 2 * m
      var aa = m * (b - m) * x / ((qam + m2) * (a + m2))
      d = 1.0 + aa * d; if (math.abs(d) < FpMin) d = FpMin
      c = 1.0 + aa / c; if (math.abs(c) < FpMin) c = FpMin
      d = 1.0 / d
      h *= d * c
      aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
      d = 1.0 + aa * d; if (math.abs(d) < FpMin) d = FpMin
      c = 1.0 + aa / c; if (math.abs(c) < FpMin) c = FpMin
      d = 1.0 / d
      val del = d * c
      h *= del
      if (math.abs(del - 1.0) < Eps) done = true
      m += 1
    }
    h
  }

  /** Regularized incomplete beta I_x(a, b). */
  def regIncBeta(a: Double, b: Double, x: Double): Double = {
    require(a > 0 && b > 0, s"beta params: $a, $b")
    if (x <= 0) 0.0
    else if (x >= 1) 1.0
    else {
      val lbeta = logGamma(a + b) - logGamma(a) - logGamma(b) +
        a * math.log(x) + b * math.log(1.0 - x)
      val front = math.exp(lbeta)
      if (x < (a + 1.0) / (a + b + 2.0)) front * betacf(a, b, x) / a
      else 1.0 - math.exp(
        logGamma(a + b) - logGamma(a) - logGamma(b) +
          b * math.log(1.0 - x) + a * math.log(x)) * betacf(b, a, 1.0 - x) / b
    }
  }

  /** Student-t CDF P(T_df <= t). */
  def tCdf(t: Double, df: Double): Double = {
    require(df > 0, s"df: $df")
    if (t.isNaN) Double.NaN
    else if (t.isPosInfinity) 1.0
    else if (t.isNegInfinity) 0.0
    else {
      val x = df / (df + t * t)
      val p = 0.5 * regIncBeta(df / 2.0, 0.5, x)
      if (t >= 0) 1.0 - p else p
    }
  }

  /** Student-t quantile: t such that P(T_df <= t) = p. Newton steps on the
    * CDF from t = 0, inside a bracket that each step narrows (a step that
    * would leave it bisects it instead), until t moves by at most 1e-12
    * relative.
    */
  def tQuantile(p: Double, df: Double): Double = {
    require(p > 0 && p < 1, s"p: $p")
    val logDensity0 = logGamma((df + 1) / 2) - logGamma(df / 2) - 0.5 * math.log(df * math.Pi)
    var lo = -1e4
    var hi = 1e4
    var t = 0.0
    var step = 1.0
    var i = 0
    while (math.abs(step) > 1e-12 * math.max(1.0, math.abs(t)) && i < 200) {
      val f = tCdf(t, df) - p
      if (f < 0) lo = t else hi = t
      val newton = t - f / math.exp(logDensity0 - (df + 1) / 2 * math.log1p(t * t / df))
      val next = if (f == 0) t else if (newton > lo && newton < hi) newton else 0.5 * (lo + hi)
      step = next - t
      t = next
      i += 1
    }
    t
  }

  /** xs(0) + ... + xs(n-1), added left to right from xs(0) as `Array.sum`
    * adds (so a lone -0.0 stays -0.0), in one plain loop; 0.0 when empty.
    */
  def sum(xs: Array[Double]): Double = {
    var s = if (xs.isEmpty) 0.0 else xs(0)
    var i = 1
    while (i < xs.length) { s += xs(i); i += 1 }
    s
  }

  /** [[tTest]] of `values`, each once. */
  def tTest(values: Array[Double], c: Double, op: CmpOp): TTest = tTest(Values(values), c, op)

  /** One-sample t-test outcome for a hypothesis mean against constant c. */
  final case class TTest(
      n: Int,
      mean: Double,
      sd: Double,
      stderr: Double,
      tStat: Double,
      pValue: Double,
      ciLow: Double,
      ciHigh: Double)

  /** One-sample t-test of `values` against `c` with alternative given by
    * `op` (Gt: mean > c; Lt: mean < c; Eq/Ne: two-sided). Also returns the
    * 1-alpha confidence interval on the mean. Degenerate inputs (n < 2 or
    * zero variance) yield a point CI and a 0/1 p-value by direct comparison.
    * The values are (value, multiplicity) pairs, n their count; each pair's
    * squared deviation counts `mult` times, so with every multiplicity 1 the
    * result is that of the plain two-pass formulas, bit for bit. A caller
    * that has the mean, `values.sum / n` (the Avg aggregate), passes it as
    * `knownMean`: one pass over the pairs instead of two.
    */
  def tTest(values: Values, c: Double, op: CmpOp, alpha: Double = 0.05,
      knownMean: Option[Double] = None): TTest = {
    require(values.nonEmpty, "t-test needs at least one value")
    require(values.count <= Int.MaxValue, s"t-test of ${values.count} values, more than an Int counts")
    val n = values.count.toInt
    val mean = knownMean.getOrElse(values.sum / n)
    var ss = 0.0 // squared deviations, added as `sum` adds (none is -0.0)
    var i = 0
    while (i < values.size) { val d = values.value(i) - mean; ss += values.mult(i) * (d * d); i += 1 }
    val variance = if (n < 2) 0.0 else ss / (n - 1)
    val sd = math.sqrt(variance)
    val se = sd / math.sqrt(n.toDouble)

    if (n < 2 || se == 0.0) {
      val pv = op match {
        case CmpOp.Gt => if (mean > c) 0.0 else 1.0
        case CmpOp.Lt => if (mean < c) 0.0 else 1.0
        case CmpOp.Ge => if (mean >= c) 0.0 else 1.0
        case CmpOp.Le => if (mean <= c) 0.0 else 1.0
        case _        => if (math.abs(mean - c) <= 1e-9) 1.0 else 0.0
      }
      val t = if (mean > c) Double.PositiveInfinity
              else if (mean < c) Double.NegativeInfinity else 0.0
      TTest(n, mean, sd, 0.0, t, pv, mean, mean)
    } else {
      val df = (n - 1).toDouble
      val t = (mean - c) / se
      val pv = op match {
        case CmpOp.Gt | CmpOp.Ge => 1.0 - tCdf(t, df)
        case CmpOp.Lt | CmpOp.Le => tCdf(t, df)
        case _                   => 2.0 * (1.0 - tCdf(math.abs(t), df))
      }
      val tq = tQuantile(1.0 - alpha / 2.0, df)
      TTest(n, mean, sd, se, t, pv, mean - tq * se, mean + tq * se)
    }
  }
}
