package repro.sampling

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._
import repro.core.{Estimate, HtEntry, Rng}
import scala.util.Random

class PrioritySamplingSpec extends AnyFunSuite {

  private val items: Seq[(Int, Double)] =
    (0 until 100).map(i => i -> (if (i < 5) 200.0 else 1.0 + i % 7))

  /** Adjusted weight of a sampled item, 0 if not sampled. */
  private def adjustedWeight[T](s: HtSample[T], item: T): Double =
    s.entries.find(_.item == item).fold(0.0)(_.adjusted)

  /** Estimated total Σ ŵ_i: unbiased for the true total but not exact. */
  private def estimatedTotal[T](s: HtSample[T]): Double = s.entries.iterator.map(_.adjusted).sum

  test("exhaustive when the population fits the sample size") {
    val s = PrioritySampling.sample(items.take(10), m = 20, seed = 1)
    assert(s.entries.size == 10)
    s.entries.foreach(e => assert(e.adjusted == e.weight))
    assert(s.tau == 0.0)
    assert(s.subsetSum(_ => true).value == items.take(10).map(_._2).sum)
    assert(s.subsetSum(_ => true).variance == 0.0)
  }

  test("sample size is exactly m when the population is larger") {
    val s = PrioritySampling.sample(items, m = 30, seed = 2)
    assert(s.entries.size == 30)
  }

  test("adjusted weights never fall below the original weight") {
    val s = PrioritySampling.sample(items, m = 25, seed = 3)
    s.entries.foreach(e => assert(e.adjusted >= e.weight - 1e-12))
  }

  test("very heavy items are effectively always sampled with their exact weight") {
    (0 until 50).foreach { r =>
      val s = PrioritySampling.sample(items, m = 30, seed = 100 + r)
      (0 until 5).foreach { i =>
        assert(s.entries.exists(_.item == i), s"heavy item $i missing at seed $r")
        assert(adjustedWeight(s, i) == 200.0, "certainty items keep exact weights")
      }
    }
  }

  test("subset sums are unbiased (Monte Carlo)") {
    val subset = (0 until 100 by 3).toSet
    val truth = items.collect { case (i, w) if subset(i) => w }.sum
    val reps = 4000
    val ests = (0 until reps).map { r =>
      PrioritySampling.sample(items, m = 20, seed = 1000 + r).subsetSumOf(subset).value
    }
    assertUnbiased(ests, truth, z = 4.5, label = "priority subset")
  }

  test("the total estimate is unbiased but not exact (Monte Carlo)") {
    val truth = items.map(_._2).sum
    val reps = 3000
    val totals = (0 until reps).map(r => estimatedTotal(PrioritySampling.sample(items, m = 20, seed = 5000 + r)))
    assertUnbiased(totals, truth, z = 4.5, label = "priority total")
    assert(totals.distinct.size > 1, "total should vary across draws (unlike Space Saving)")
  }

  test("variance estimator is non-negative and zero for pure-certainty subsets") {
    val s = PrioritySampling.sample(items, m = 30, seed = 7)
    assert(s.subsetSumOf((0 until 5).toSet).variance == 0.0)
    assert(s.subsetSum(_ => true).variance >= 0.0)
  }

  test("normal intervals from the variance estimator have reasonable coverage") {
    val subset = (0 until 100 by 2).toSet
    val truth = items.collect { case (i, w) if subset(i) => w }.sum
    val reps = 800
    val cover = (0 until reps).count { r =>
      PrioritySampling.sample(items, m = 40, seed = 9000 + r).subsetSumOf(subset).covers(truth)
    }
    assert(cover.toDouble / reps >= 0.85, s"coverage ${cover.toDouble / reps}")
  }

  test("rejects non-positive weights and sizes") {
    assertThrows[IllegalArgumentException](PrioritySampling.sample(Seq(1 -> 0.0), 2, 1))
    assertThrows[IllegalArgumentException](PrioritySampling.sample(Seq(1 -> -1.0, 2 -> 1.0, 3 -> 1.0), 2, 1))
    assertThrows[IllegalArgumentException](PrioritySampling.sample(items, 0, 1))
  }

  test("rejects an infinite weight, naming it, in the exhaustive and the sampled case") {
    Seq(10, 2).foreach { m =>
      val e = intercept[IllegalArgumentException](
        PrioritySampling.sample(Seq(1 -> 1.0, 2 -> Double.PositiveInfinity, 3 -> 2.0), m, 1))
      assert(e.getMessage.contains("got Infinity"), e.getMessage)
    }
  }

  test("deterministic per seed") {
    val a = PrioritySampling.sample(items, 15, seed = 42)
    val b = PrioritySampling.sample(items, 15, seed = 42)
    assert(a == b)
  }
}

class BottomKSpec extends AnyFunSuite {

  test("exhaustive below k distinct items: exact counts and tau = 1") {
    val bk = BottomK[Int](10, seed = 1)
    val rng = new Random(1)
    val stream = Array.fill(500)(rng.nextInt(8))
    stream.foreach(bk.update(_))
    val r = bk.result
    assert(r.tau == 1.0)
    val truth = stream.groupBy(identity).view.mapValues(_.size.toDouble).toMap
    truth.foreach { case (i, n) => assert(r.subsetSumOf(Set(i)).value == n) }
  }

  test("retains exactly k items when more are seen") {
    val bk = BottomK[Int](25, seed = 2)
    (0 until 500).foreach(bk.update(_))
    assert(bk.result.entries.size == 25)
  }

  test("retained counts are exact regardless of arrival order") {
    val counts = (0 until 200).map(i => i.toLong % 17 + 1)
    Seq(3L, 4L, 5L).foreach { seed =>
      val bk = BottomK[Int](30, seed = 11)
      shuffledStream(counts, seed).foreach(bk.update(_))
      val truth = counts.zipWithIndex.map { case (c, i) => i -> c.toDouble }.toMap
      bk.result.entries.foreach(e => assert(e.weight == truth(e.item), s"item ${e.item}"))
    }
  }

  // 300 items with counts 1..13, every 4th in the query subset.
  private val counts = (0 until 300).map(i => (i % 13 + 1).toLong)
  private val subset = (0 until 300 by 4).toSet
  private val truth = subset.toSeq.map(counts(_).toDouble).sum

  /** A k = 40 sample of `counts` in one fixed arrival order. */
  private def sample(seed: Long): HtSample[Int] = {
    val bk = BottomK[Int](40, seed)
    shuffledStream(counts, seed = 31).foreach(bk.update(_))
    bk.result
  }

  test("subset sums are unbiased across hash seeds (Monte Carlo)") {
    val reps = 2000
    val ests = (0 until reps).map(r => sample(1000 + r).subsetSumOf(subset).value)
    assertUnbiased(ests, truth, z = 4.5, label = "bottom-k subset")
  }

  test("the variance estimate is Σ (w/τ)²·(1−τ) over the sampled items of the subset") {
    (0 until 20).foreach { r =>
      val s = sample(500 + r)
      assert(s.tau < 1.0)
      val expected = s.entries.iterator.filter(e => subset(e.item))
        .map(e => (e.weight / s.tau) * (e.weight / s.tau) * (1 - s.tau)).sum
      val got = s.subsetSumOf(subset).variance
      assert(math.abs(got - expected) <= 1e-12 * expected, s"seed ${500 + r}: $got vs $expected")
    }
  }

  test("an exhaustive sample has zero variance") {
    val bk = BottomK[Int](10, seed = 3)
    (0 until 500).foreach(i => bk.update(i % 8, 1.0 + i % 3))
    val s = bk.result
    assert(s.tau == 1.0 && s.entries.size == 8)
    assert(s.subsetSum(_ => true) == Estimate(bk.totalWeight, 0.0))
    assert(s.subsetSumOf(Set(0, 3, 5)).variance == 0.0)
  }

  test("normal 95% intervals from the variance estimate cover (Monte Carlo)") {
    val reps = 2000
    val cover = (0 until reps).count(r => sample(1000 + r).subsetSumOf(subset).covers(truth))
    assert(cover.toDouble / reps >= 0.85, s"coverage ${cover.toDouble / reps}")
  }

  test("weighted updates accumulate exactly") {
    val bk = BottomK[String](5, seed = 6)
    bk.update("a", 2.5); bk.update("a", 1.5); bk.update("b", 3.0)
    val r = bk.result
    assert(r.subsetSumOf(Set("a")).value == 4.0)
    assert(bk.totalWeight == 7.0)
  }

  test("rejects non-positive weights and sizes") {
    assertThrows[IllegalArgumentException](BottomK[Int](0, 1))
    val bk = BottomK[Int](3, 1)
    assertThrows[IllegalArgumentException](bk.update(1, 0.0))
  }

  test("rejects an infinite weight, naming it, and leaves the sample as it was") {
    val bk = BottomK[Int](3, 1)
    bk.update(1, 2.0)
    val e = intercept[IllegalArgumentException](bk.update(2, Double.PositiveInfinity))
    assert(e.getMessage.contains("got Infinity"), e.getMessage)
    assert(bk.totalWeight == 2.0 && bk.result == HtSample(Vector(repro.core.HtEntry(1, 2.0, 2.0)), 1.0))
  }

  test("equal hashes break by first arrival, as in a brute-force reference") {
    // Strings of "Aa"/"BB" blocks with the same suffix share `##`, so they share a hash.
    val blocks = Vector("Aa", "BB")
    val combos = for (a <- blocks; b <- blocks; c <- blocks) yield a + b + c
    val rng = new Random(41)
    var (tiedTrials, prunedTrials) = (0, 0)
    (0 until 300).foreach { trial =>
      val k = 1 + rng.nextInt(12)
      val seed = rng.nextLong()
      val pool = ('a' until ('a' + 1 + rng.nextInt(6)).toChar).flatMap(c => combos.map(_ + c))
      val stream = Vector.fill(20 + rng.nextInt(300))(pool(rng.nextInt(pool.size)) -> (0.1 + rng.nextDouble()))
      val bk = BottomK[String](k, seed)
      stream.foreach { case (i, w) => bk.update(i, w) }

      // The reference: the sketch's hash formula, exact totals in first-arrival
      // order, a stable sort on hash and the first k+1 items.
      def hash(item: String): Double = {
        val z = Rng.mix64((item.## & 0xffffffffL) ^ (seed * 0x9e3779b97f4a7c15L))
        math.max((z >>> 11).toDouble / (1L << 53).toDouble, Double.MinPositiveValue)
      }
      val sums = stream.groupMapReduce(_._1)(_._2)(_ + _)
      val sorted = stream.map(_._1).distinct.sortBy(hash)
      val tau = if (sorted.size <= k) 1.0 else hash(sorted(k))
      val expected = HtSample(sorted.take(k).map(i => HtEntry(i, sums(i), sums(i) / tau)), tau)
      assert(bk.result == expected, s"trial $trial (k = $k, seed = $seed)")

      val hashes = sorted.take(k + 2).map(hash)
      if (hashes.distinct.size < hashes.size) tiedTrials += 1
      if (sorted.size > 2 * (k + 1)) prunedTrials += 1
    }
    assert(tiedTrials >= 50, s"only $tiedTrials trials had equal hashes among the k+2 smallest")
    assert(prunedTrials >= 50, s"only $prunedTrials trials saw enough items to prune")
  }

  test("an item's membership is stable across arrival orders (hash-determined)") {
    val counts = (0 until 100).map(_ => 3L)
    val runs = Seq(1L, 2L, 3L).map { order =>
      val bk = BottomK[Int](20, seed = 77)
      shuffledStream(counts, order).foreach(bk.update(_))
      bk.result.entries.map(_.item).toSet
    }
    assert(runs.distinct.size == 1, "bottom-k membership must depend only on hashes")
  }
}
