package repro

import org.scalacheck.{Prop, Test => SCTest}
import repro.core.{Entry, Rng}
import repro.sampling.Pps
import scala.util.Random

/** Shared helpers for the unit-test suites. */
object TestUtil {

  /** Run a ScalaCheck property and fail the surrounding ScalaTest test if it
    * does not pass (raw scalacheck — the scalatestplus bridge is not in the
    * offline dependency set).
    */
  def checkProp(prop: Prop, minTests: Int = 60): Unit = {
    val res = SCTest.check(
      SCTest.Parameters.default.withMinSuccessfulTests(minTests).withInitialSeed(0xC0FFEEL), prop)
    assert(res.passed, s"scalacheck property failed: ${res.status}")
  }

  /** Expand per-item counts into a shuffled unit-weight stream of item ids. */
  def shuffledStream(counts: Seq[Long], seed: Long): Array[Int] = {
    val rows = counts.iterator.zipWithIndex
      .flatMap { case (c, i) => Iterator.fill(c.toInt)(i) }.toArray
    val rng = new Random(seed)
    var i = rows.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = rows(i); rows(i) = rows(j); rows(j) = t
      i -= 1
    }
    rows
  }

  /** A copy of `a` written and read back with Java serialization. */
  def roundTrip[A](a: A): A = {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(a)
    out.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[A]
  }

  /** Poisson (independent Bernoulli) PPS sample with HT-adjusted weights:
    * the Monte Carlo check of `Pps.poissonVariance`.
    */
  def poissonSample[T](items: Seq[(T, Double)], k: Int, seed: Long): Vector[Entry[T]] = {
    val pis = Pps.inclusionProbabilities(items.map(_._2), k)
    val rng = Rng(seed)
    items.iterator.zipWithIndex.flatMap { case ((i, w), j) =>
      if (rng.nextDouble() < pis(j)) Some(Entry(i, w / pis(j))) else None
    }.toVector
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  def variance(xs: Seq[Double]): Double = {
    val m = mean(xs)
    xs.iterator.map(x => (x - m) * (x - m)).sum / (xs.size - 1)
  }

  /** Monte-Carlo z-test helper: |mean(xs) − expected| within `z` standard
    * errors (returns a readable failure message if not).
    */
  def assertUnbiased(xs: Seq[Double], expected: Double, z: Double = 4.0, label: String = ""): Unit = {
    val m = mean(xs)
    val se = math.sqrt(variance(xs) / xs.size)
    val tol = z * math.max(se, 1e-12)
    assert(math.abs(m - expected) <= tol,
      s"$label mean=$m expected=$expected |diff|=${math.abs(m - expected)} > $z*se=$tol (n=${xs.size})")
  }
}
