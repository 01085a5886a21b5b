package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._
import scala.util.Random

/** Misra-Gries with m counters, checked through the §5.2 isomorphism: it is
  * the Misra-Gries view `(N̂_i − N̂_min)₊` of Deterministic Space Saving with
  * m + 1 bins, whose N̂_min is the total soft-threshold mass removed so far.
  * Merges go through `Merge.misraGries`.
  */
class MisraGriesSpec extends AnyFunSuite {

  private def mg[T](m: Int): DeterministicSpaceSaving[T] = DeterministicSpaceSaving[T](m + 1, seed = 0L)

  private def counters[T](s: DeterministicSpaceSaving[T]): Map[T, Double] =
    s.misraGriesSummary.entries.map(e => e.item -> e.count).toMap

  private def trueCounts(stream: Seq[Int]): Map[Int, Long] =
    stream.groupBy(identity).view.mapValues(_.size.toLong).toMap

  test("exact when distinct items fit in the counters") {
    val s = mg[Int](8)
    val counts = Seq(9L, 5L, 3L, 1L)
    s.updateAll(shuffledStream(counts, seed = 1))
    val mgs = s.misraGriesSummary
    counts.zipWithIndex.foreach { case (c, i) => assert(mgs.estimate(i) == c.toDouble) }
    assert(s.minCount == 0.0)
  }

  test("never more than m counters") {
    val s = mg[Int](5)
    (0 until 500).foreach(s.update(_))
    assert(s.misraGriesSummary.entries.size <= 5)
  }

  test("estimates never exceed the true count") {
    val rng = new Random(2)
    val stream = Array.fill(4000)(rng.nextInt(100))
    val s = mg[Int](12)
    stream.foreach(s.update(_))
    val truth = trueCounts(stream.toSeq)
    val mgs = s.misraGriesSummary
    (0 until 100).foreach { i =>
      assert(mgs.estimate(i) <= truth.getOrElse(i, 0L).toDouble + 1e-9)
    }
  }

  test("deterministic guarantee: undercount at most n_tot/m") {
    val rng = new Random(3)
    val stream = Array.fill(6000)(if (rng.nextDouble() < 0.4) rng.nextInt(8) else rng.nextInt(500))
    val m = 20
    val s = mg[Int](m)
    stream.foreach(s.update(_))
    val truth = trueCounts(stream.toSeq)
    val mgs = s.misraGriesSummary
    truth.foreach { case (i, n) =>
      assert(n - mgs.estimate(i) <= stream.length.toDouble / m + 1e-9, s"item $i undercount too large")
    }
  }

  test("items with frequency above n_tot/m always survive") {
    val rng = new Random(4)
    val m = 10
    val stream = Array.fill(10000)(if (rng.nextDouble() < 0.3) 0 else 1 + rng.nextInt(400))
    val s = mg[Int](m)
    stream.foreach(s.update(_))
    assert(counters(s).contains(0))
    assert(s.misraGriesSummary.estimate(0) >= 10000 * 0.3 - 10000.0 / m - 300)
  }

  test("undercount is bounded by the recorded total decrement") {
    val rng = new Random(5)
    val stream = Array.fill(5000)(rng.nextInt(200))
    val s = mg[Int](15)
    stream.foreach(s.update(_))
    val truth = trueCounts(stream.toSeq)
    val mgs = s.misraGriesSummary
    truth.foreach { case (i, n) =>
      assert(n - mgs.estimate(i) <= s.minCount + 1e-9)
    }
  }

  test("weighted updates: exactness in the no-reduction regime") {
    val s = mg[String](4)
    s.update("a", 2.5); s.update("b", 1.5); s.update("a", 3.0)
    val mgs = s.misraGriesSummary
    assert(mgs.estimate("a") == 5.5)
    assert(mgs.estimate("b") == 1.5)
    assert(s.totalWeight == 7.0)
  }

  test("rejects non-positive weights") {
    val s = mg[Int](3)
    assertThrows[IllegalArgumentException](s.update(1, 0.0))
    assertThrows[IllegalArgumentException](s.update(1, -1.0))
  }

  test("merge keeps at most m counters and stays conservative") {
    val rng = new Random(6)
    val s1 = Array.fill(3000)(rng.nextInt(120))
    val s2 = Array.fill(3000)(rng.nextInt(120))
    val a = mg[Int](10)
    val b = mg[Int](10)
    s1.foreach(a.update(_)); s2.foreach(b.update(_))
    val truth = trueCounts((s1 ++ s2).toSeq)
    val merged = Merge.misraGries(10, Seq(a.misraGriesSummary, b.misraGriesSummary))
    val est = merged.entries.map(e => e.item -> e.count).toMap
    assert(merged.entries.size <= 10)
    assert(merged.total == 6000.0)
    truth.foreach { case (i, n) =>
      val e = est.getOrElse(i, 0.0)
      assert(e <= n + 1e-9, s"merged over-estimate for $i")
      assert(n - e <= 6000.0 / 10 + 1e-9, s"merged undercount too large for $i")
    }
  }

  test("merge equals stream concatenation guarantee-wise on skewed data") {
    val rng = new Random(7)
    def skewed() = Array.fill(4000)(if (rng.nextDouble() < 0.6) rng.nextInt(3) else 3 + rng.nextInt(1000))
    val s1 = skewed(); val s2 = skewed()
    val a = mg[Int](8); val b = mg[Int](8)
    s1.foreach(a.update(_)); s2.foreach(b.update(_))
    val merged = Merge.misraGries(8, Seq(a.misraGriesSummary, b.misraGriesSummary))
    val est = merged.entries.map(e => e.item -> e.count).toMap
    val truth = trueCounts((s1 ++ s2).toSeq)
    // The three hot items each have ~1600 occurrences >> 8000/8; all survive.
    (0 until 3).foreach(i => assert(est.contains(i), s"hot item $i lost in merge"))
    (0 until 3).foreach(i => assert(truth(i) - est(i) <= 8000.0 / 8 + 1e-9))
  }
}
