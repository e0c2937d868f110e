package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

/** Verifies the hand-rolled Student-t machinery against known values. */
class StatsSpec extends AnyFunSuite with PropSupport {

  private def approx(a: Double, b: Double, eps: Double = 1e-6): Boolean = math.abs(a - b) < eps

  // ------------------------------------------------------------- logGamma

  test("logGamma at integers matches factorials") {
    assert(approx(Stats.logGamma(1.0), 0.0))
    assert(approx(Stats.logGamma(2.0), 0.0))
    assert(approx(Stats.logGamma(5.0), math.log(24.0)))
    assert(approx(Stats.logGamma(10.0), math.log(362880.0)))
  }
  test("logGamma(0.5) = log sqrt(pi)") {
    assert(approx(Stats.logGamma(0.5), 0.5 * math.log(math.Pi)))
  }
  test("logGamma recurrence Γ(x+1) = xΓ(x)") {
    forAllG(Gen.choose(0.1, 20.0)) { x =>
      assert(approx(Stats.logGamma(x + 1.0), Stats.logGamma(x) + math.log(x), 1e-8))
    }
  }
  test("logGamma rejects non-positive input") {
    intercept[IllegalArgumentException](Stats.logGamma(0.0))
    intercept[IllegalArgumentException](Stats.logGamma(-1.0))
  }

  // ------------------------------------------------------------ incomplete beta

  test("regIncBeta boundary values") {
    assert(Stats.regIncBeta(2.0, 3.0, 0.0) == 0.0)
    assert(Stats.regIncBeta(2.0, 3.0, 1.0) == 1.0)
  }
  test("regIncBeta symmetry I_x(a,b) = 1 - I_{1-x}(b,a)") {
    forAllG(Gen.choose(0.05, 0.95), Gen.choose(0.5, 10.0), Gen.choose(0.5, 10.0)) {
      (x, a, b) =>
        assert(approx(Stats.regIncBeta(a, b, x), 1.0 - Stats.regIncBeta(b, a, 1.0 - x), 1e-8))
    }
  }
  test("regIncBeta(1,1,x) = x (uniform CDF)") {
    forAllG(Gen.choose(0.0, 1.0)) { x =>
      assert(approx(Stats.regIncBeta(1.0, 1.0, x), x, 1e-9))
    }
  }
  test("regIncBeta(a,1,x) = x^a") {
    assert(approx(Stats.regIncBeta(3.0, 1.0, 0.5), 0.125))
  }

  // ----------------------------------------------------------------- t CDF

  test("tCdf at 0 is 0.5 for any df") {
    for (df <- Seq(1.0, 2.0, 5.0, 30.0, 100.0)) assert(approx(Stats.tCdf(0.0, df), 0.5))
  }
  test("tCdf df=1 is the Cauchy CDF") {
    // Cauchy: F(t) = 1/2 + atan(t)/pi; F(1) = 0.75.
    assert(approx(Stats.tCdf(1.0, 1.0), 0.75, 1e-8))
    assert(approx(Stats.tCdf(-1.0, 1.0), 0.25, 1e-8))
  }
  test("tCdf known value df=2") {
    // F(1; 2) = 1/2 + 1/(2*sqrt(3)) ≈ 0.7886751.
    assert(approx(Stats.tCdf(1.0, 2.0), 0.7886751, 1e-6))
  }
  test("tCdf large df approaches standard normal") {
    // Φ(1.96) ≈ 0.9750021.
    assert(approx(Stats.tCdf(1.96, 100000.0), 0.975, 1e-3))
  }
  test("tCdf symmetry") {
    forAllG(Gen.choose(-8.0, 8.0), Gen.choose(1.0, 50.0)) { (t, df) =>
      assert(approx(Stats.tCdf(t, df), 1.0 - Stats.tCdf(-t, df), 1e-9))
    }
  }
  test("tCdf is monotone in t") {
    forAllG(Gen.choose(-5.0, 5.0), Gen.choose(0.01, 2.0), Gen.choose(1.0, 40.0)) {
      (t, d, df) =>
        assert(Stats.tCdf(t + d, df) >= Stats.tCdf(t, df) - 1e-12)
    }
  }
  test("tCdf handles infinities") {
    assert(Stats.tCdf(Double.PositiveInfinity, 5.0) == 1.0)
    assert(Stats.tCdf(Double.NegativeInfinity, 5.0) == 0.0)
  }

  // ------------------------------------------------------------- quantile

  test("tQuantile inverts tCdf") {
    forAllG(Gen.choose(0.01, 0.99), Gen.choose(2.0, 50.0)) { (p, df) =>
      assert(approx(Stats.tCdf(Stats.tQuantile(p, df), df), p, 1e-6))
    }
  }
  test("tQuantile known critical values") {
    // Standard t-table: t_{0.975,10} = 2.228; t_{0.95,5} = 2.015; t_{0.975,1} = 12.706.
    assert(approx(Stats.tQuantile(0.975, 10.0), 2.228, 2e-3))
    assert(approx(Stats.tQuantile(0.95, 5.0), 2.015, 2e-3))
    assert(approx(Stats.tQuantile(0.975, 1.0), 12.706, 5e-2))
  }
  test("tQuantile at large df follows the Cornish-Fisher expansion around z") {
    // z = Φ⁻¹(0.975); the next term of the expansion is O(1/df³).
    val z = 1.959963984540054
    for (df <- Seq(1e4, 1e5, 1e6, 1e7)) {
      val want = z + (z * z * z + z) / (4 * df) + (5 * math.pow(z, 5) + 16 * z * z * z + 3 * z) / (96 * df * df)
      val got = Stats.tQuantile(0.975, df)
      assert(approx(got, want, 1e-8), s"df $df: $got vs $want")
    }
  }
  test("tQuantile(0.5) = 0") {
    assert(approx(Stats.tQuantile(0.5, 7.0), 0.0, 1e-6))
  }

  // ------------------------------------------------------------------ sum

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("sum adds like Array.sum, bit for bit, starting from the first element") {
    val rng = new scala.util.Random(3)
    val cases = Seq(Array.empty[Double], Array(-0.0), Array(-0.0, -0.0), Array(-0.0, 0.0), Array(0.0, -0.0),
      Array(1e16, 1.0, -1e16), Array.fill(1000)(rng.nextGaussian() * 1e6)) ++
      Seq.fill(50)(Array.fill(1 + rng.nextInt(20))(rng.nextDouble() - 0.5))
    cases.foreach(v => assert(bits(Stats.sum(v)) == bits(v.sum), v.toSeq))
  }
  test("tTest mean and sd equal the Array.sum formulas bit for bit") {
    val rng = new scala.util.Random(4)
    (Seq(Array(-0.0), Array(-0.0, -0.0), Array(2.0, 2.0)) ++
      Seq.fill(50)(Array.fill(1 + rng.nextInt(50))(rng.nextGaussian() * 100))).foreach { v =>
      val mean = v.sum / v.length
      val sd = math.sqrt(if (v.length < 2) 0.0 else v.map(x => (x - mean) * (x - mean)).sum / (v.length - 1))
      val r = Stats.tTest(v, 0.5, CmpOp.Gt)
      assert(bits(r.mean) == bits(mean) && bits(r.sd) == bits(sd), v.toSeq)
    }
  }

  // --------------------------------------------------------------- t-test

  test("tTest basic one-sided greater") {
    val vals = Array(5.1, 5.3, 4.9, 5.2, 5.0, 5.4, 5.1, 5.2)
    val r = Stats.tTest(vals, 4.0, CmpOp.Gt)
    assert(r.pValue < 0.001)          // strongly above 4
    assert(r.ciLow < r.mean && r.mean < r.ciHigh)
    assert(r.n == 8)
  }
  test("tTest one-sided less mirrors greater") {
    val vals = Array(1.0, 1.2, 0.9, 1.1)
    val less = Stats.tTest(vals, 2.0, CmpOp.Lt)
    val greater = Stats.tTest(vals, 2.0, CmpOp.Gt)
    assert(less.pValue < 0.05)
    assert(approx(less.pValue + greater.pValue, 1.0, 1e-9))
  }
  test("tTest two-sided p-value is twice the one-sided tail") {
    val vals = Array(3.0, 3.5, 2.8, 3.2, 3.1)
    val two = Stats.tTest(vals, 2.0, CmpOp.Eq)
    val one = Stats.tTest(vals, 2.0, CmpOp.Gt)
    assert(approx(two.pValue, 2.0 * one.pValue, 1e-9))
  }
  test("tTest at the null mean has p-value ~0.5 one-sided") {
    val vals = Array(1.0, 2.0, 3.0, 4.0, 5.0)
    val r = Stats.tTest(vals, 3.0, CmpOp.Gt)
    assert(approx(r.pValue, 0.5, 1e-9))
  }
  test("tTest degenerate single value") {
    val r = Stats.tTest(Array(5.0), 4.0, CmpOp.Gt)
    assert(r.pValue == 0.0 && r.ciLow == 5.0 && r.ciHigh == 5.0)
    val r2 = Stats.tTest(Array(3.0), 4.0, CmpOp.Gt)
    assert(r2.pValue == 1.0)
  }
  test("tTest degenerate zero variance") {
    val r = Stats.tTest(Array.fill(10)(2.0), 1.0, CmpOp.Gt)
    assert(r.pValue == 0.0 && r.stderr == 0.0)
  }
  test("tTest empty input rejected") {
    intercept[IllegalArgumentException](Stats.tTest(Array.empty[Double], 0.0, CmpOp.Gt))
  }
  test("tTest CI narrows with more data") {
    val rng = new scala.util.Random(1)
    val small = Array.fill(10)(5.0 + rng.nextGaussian())
    val large = Array.fill(1000)(5.0 + rng.nextGaussian())
    val rs = Stats.tTest(small, 0.0, CmpOp.Gt)
    val rl = Stats.tTest(large, 0.0, CmpOp.Gt)
    assert(rl.ciHigh - rl.ciLow < rs.ciHigh - rs.ciLow)
  }
  test("tTest CI covers the true mean at roughly the nominal rate") {
    val rng = new scala.util.Random(42)
    val covered = (1 to 200).count { _ =>
      val vals = Array.fill(30)(10.0 + rng.nextGaussian())
      val r = Stats.tTest(vals, 0.0, CmpOp.Gt)
      r.ciLow <= 10.0 && 10.0 <= r.ciHigh
    }
    assert(covered >= 180, s"95% CI covered only $covered/200")
  }
  test("tTest p-value decreases as the sample mean moves past c") {
    val rng = new scala.util.Random(7)
    val base = Array.fill(50)(rng.nextGaussian())
    val p1 = Stats.tTest(base.map(_ + 0.2), 0.0, CmpOp.Gt).pValue
    val p2 = Stats.tTest(base.map(_ + 1.0), 0.0, CmpOp.Gt).pValue
    assert(p2 < p1)
  }

  // ------------------------------------------------- (value, multiplicity)

  private def expanded(vs: Array[Double], ms: Array[Long]): Array[Double] =
    vs.indices.toArray.flatMap(i => Array.fill(ms(i).toInt)(vs(i)))

  test("tTest of pairs of multiplicity 1 equals tTest of the values, bit for bit") {
    val rng = new scala.util.Random(5)
    Seq.fill(50)(Array.fill(1 + rng.nextInt(50))(rng.nextGaussian() * 100)).foreach { v =>
      val (a, b) = (Stats.tTest(Values(v, Array.fill(v.length)(1L)), 0.5, CmpOp.Gt), Stats.tTest(v, 0.5, CmpOp.Gt))
      assert(a.productIterator.toSeq.map {
        case x: Double => java.lang.Double.doubleToRawLongBits(x)
        case n: Int    => n.toLong
      } == b.productIterator.toSeq.map {
        case x: Double => java.lang.Double.doubleToRawLongBits(x)
        case n: Int    => n.toLong
      }, v.toSeq)
    }
  }
  test("tTest of pairs equals tTest of the expanded values within 1e-11 relative") {
    // Non-dyadic values, so sums in another order differ in their last bits;
    // two or more distinct ones, so the variance is not zero.
    val rng = new scala.util.Random(6)
    for (op <- Seq(CmpOp.Gt, CmpOp.Lt, CmpOp.Eq); _ <- 1 to 30) {
      val k = 2 + rng.nextInt(40)
      val vs = Array.fill(k)(0.1 + rng.nextDouble() * 7.3)
      val ms = Array.fill(k)(1L + rng.nextInt(60))
      val c = 0.1 + rng.nextDouble() * 7.3
      val (a, b) = (Stats.tTest(Values(vs, ms), c, op), Stats.tTest(expanded(vs, ms), c, op))
      def close(x: Double, y: Double) = math.abs(x - y) <= 1e-11 * math.max(math.abs(y), 1e-300)
      assert(a.n == b.n && a.n == ms.sum, (a, b))
      assert(close(a.mean, b.mean) && close(a.sd, b.sd) && close(a.stderr, b.stderr) && close(a.tStat, b.tStat) &&
        close(a.ciLow, b.ciLow) && close(a.ciHigh, b.ciHigh) && math.abs(a.pValue - b.pValue) <= 1e-11, (a, b))
    }
  }
  test("tTest of one value with multiplicity above 1 is degenerate") {
    val r = Stats.tTest(Values(Array(5.0), Array(4L)), 4.0, CmpOp.Gt)
    assert(r == Stats.tTest(Array.fill(4)(5.0), 4.0, CmpOp.Gt))
    assert(r.n == 4 && r.sd == 0.0 && r.stderr == 0.0 && r.pValue == 0.0 && r.ciLow == 5.0 && r.ciHigh == 5.0)
  }
  test("tTest of pairs with zero variance") {
    val r = Stats.tTest(Values(Array(2.0, 2.0), Array(3L, 7L)), 1.0, CmpOp.Gt)
    assert(r.n == 10 && r.mean == 2.0 && r.stderr == 0.0 && r.pValue == 0.0)
  }
  test("tTest rejects more values than an Int counts, and pairs need multiplicity 1 or more") {
    assert(Stats.tTest(Values(Array(1.0), Array(Int.MaxValue.toLong)), 0.0, CmpOp.Gt).n == Int.MaxValue)
    intercept[IllegalArgumentException](Stats.tTest(Values(Array(1.0, 2.0), Array(Int.MaxValue.toLong, 1L)), 0.0, CmpOp.Gt))
    intercept[IllegalArgumentException](Values(Array(1.0, 2.0), Array(1L, 0L)))
  }
}
