package repro.sampling

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._

class PpsSpec extends AnyFunSuite {

  private val weights: Seq[Double] = (1 to 50).map(_.toDouble)

  test("inclusion probabilities sum to the sample size") {
    Seq(1, 5, 10, 25, 49).foreach { k =>
      val pis = Pps.inclusionProbabilities(weights, k)
      assert(math.abs(pis.sum - k) < 1e-9, s"k=$k sum=${pis.sum}")
    }
  }

  test("all inclusion probabilities lie in (0, 1]") {
    val pis = Pps.inclusionProbabilities(weights, 12)
    pis.foreach(p => assert(p > 0 && p <= 1.0))
  }

  test("k at or above the population size gives all ones") {
    Seq(50, 60).foreach { k =>
      assert(Pps.inclusionProbabilities(weights, k).forall(_ == 1.0))
    }
  }

  test("below-threshold probabilities are exactly proportional to weight") {
    val pis = Pps.inclusionProbabilities(weights, 10)
    val ratios = weights.indices.collect { case i if pis(i) < 1.0 => pis(i) / weights(i) }
    assert(ratios.max - ratios.min < 1e-12)
  }

  test("heavy items saturate at probability one") {
    val w = Seq(1.0, 1.0, 10.0) // the example from §5.1 of the paper
    val pis = Pps.inclusionProbabilities(w, 2)
    assert(pis(2) == 1.0)
    assert(math.abs(pis(0) - 0.5) < 1e-12 && math.abs(pis(1) - 0.5) < 1e-12)
  }

  test("poisson sample: expected size equals k (Monte Carlo)") {
    val items = weights.zipWithIndex.map { case (w, i) => (i, w) }
    val reps = 2000
    val sizes = (0 until reps).map(r => poissonSample(items, 15, seed = 100 + r).size.toDouble)
    assertUnbiased(sizes, 15.0, z = 4.5, label = "poisson size")
  }

  test("poisson sample: HT subset sums are unbiased (Monte Carlo)") {
    val items = weights.zipWithIndex.map { case (w, i) => (i, w) }
    val subset = (0 until 50 by 3).toSet
    val truth = items.collect { case (i, w) if subset(i) => w }.sum
    val reps = 3000
    val ests = (0 until reps).map { r =>
      poissonSample(items, 15, seed = 500 + r).collect { case e if subset(e.item) => e.count }.sum
    }
    assertUnbiased(ests, truth, z = 4.5, label = "poisson subset")
  }

  test("poisson variance formula matches the Monte Carlo variance") {
    val items = weights.zipWithIndex.map { case (w, i) => (i, w) }
    val subset = (0 until 50 by 2).toSet
    val reps = 4000
    val ests = (0 until reps).map { r =>
      poissonSample(items, 20, seed = 900 + r).collect { case e if subset(e.item) => e.count }.sum
    }
    val mc = variance(ests)
    val theory = Pps.poissonVariance(items, 20)(subset.contains)
    assert(math.abs(mc - theory) / theory < 0.15, s"mc=$mc theory=$theory")
  }

  test("rejects an infinite weight, naming it") {
    val e = intercept[IllegalArgumentException](Pps.inclusionProbabilities(Seq(1.0, Double.PositiveInfinity, 2.0), 2))
    assert(e.getMessage.contains("got Infinity"), e.getMessage)
    assertThrows[IllegalArgumentException](poissonSample(Seq("a" -> Double.PositiveInfinity), 1, 1))
  }

  test("rejects invalid arguments") {
    assertThrows[IllegalArgumentException](Pps.inclusionProbabilities(Seq(1.0, -1.0), 1))
    assertThrows[IllegalArgumentException](Pps.inclusionProbabilities(Seq(1.0), 0))
  }
}
