package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._
import scala.util.Random

class DeterministicSpaceSavingSpec extends AnyFunSuite {

  private def trueCounts(stream: Seq[Int]): Map[Int, Long] =
    stream.groupBy(identity).view.mapValues(_.size.toLong).toMap

  test("exact when distinct items fit in the bins") {
    val counts = Seq(12L, 8L, 4L, 2L)
    val s = DeterministicSpaceSaving[Int](6, seed = 1)
    s.updateAll(shuffledStream(counts, seed = 1))
    counts.zipWithIndex.foreach { case (c, i) => assert(s.estimate(i) == c.toDouble) }
  }

  test("classic overestimate guarantee: n_i ≤ N̂_i for every in-sketch item") {
    val rng = new Random(2)
    val stream = Array.fill(5000)(rng.nextInt(200))
    val s = DeterministicSpaceSaving[Int](20, seed = 2)
    stream.foreach(s.update(_))
    val truth = trueCounts(stream.toSeq)
    s.summary.entries.foreach { e =>
      assert(e.count >= truth.getOrElse(e.item, 0L).toDouble, s"under-estimate for ${e.item}")
    }
  }

  test("classic error bound: N̂_i − n_i ≤ N̂_min ≤ t/m") {
    val rng = new Random(3)
    val stream = Array.fill(8000)(rng.nextInt(300))
    val m = 25
    val s = DeterministicSpaceSaving[Int](m, seed = 3)
    stream.foreach(s.update(_))
    val truth = trueCounts(stream.toSeq)
    assert(s.minCount <= stream.length.toDouble / m + 1e-9)
    s.summary.entries.foreach { e =>
      assert(e.count - truth.getOrElse(e.item, 0L) <= s.minCount + 1e-9)
    }
  }

  test("total count is preserved exactly") {
    val rng = new Random(4)
    val s = DeterministicSpaceSaving[Int](10, seed = 4)
    (1 to 3000).foreach(_ => s.update(rng.nextInt(500)))
    assert(s.summary.entries.map(_.count).sum == 3000.0)
  }

  test("paper §6.3 pathological example: returns items 3,4 with count c+1") {
    val c = 50
    val s = DeterministicSpaceSaving[Int](2, seed = 5)
    (1 to c).foreach(_ => s.update(1))
    (1 to c).foreach(_ => s.update(2))
    s.update(3); s.update(4)
    assert(s.contains(3) && s.contains(4))
    assert(!s.contains(1) && !s.contains(2))
    assert(s.estimate(3) == (c + 1).toDouble)
    assert(s.estimate(4) == (c + 1).toDouble)
  }

  test("theorem 11 robustness: n_tot extra distinct rows wipe out every original item") {
    val m = 10
    // v original items, each with n_i < 2·n_tot/m.
    val counts = Seq.fill(20)(10L) // n_tot = 200, 2·n_tot/m = 40 > 10 ✓
    val nTot = counts.sum
    val s = DeterministicSpaceSaving[Int](m, seed = 6)
    // Sorted most-to-least frequent (all equal here), then n_tot distinct items.
    counts.indices.foreach(i => (1 to counts(i).toInt).foreach(_ => s.update(i)))
    (0 until nTot.toInt).foreach(j => s.update(1000 + j))
    counts.indices.foreach { i =>
      assert(!s.contains(i), s"original item $i survived the adversarial flood")
      assert(s.estimate(i) == 0.0)
    }
    // Bins hold ~2·n_tot/m each.
    s.summary.entries.foreach(e => assert(math.abs(e.count - 2.0 * nTot / m) <= 1.0))
  }

  test("frequent items (freq > t/m) are always identified on i.i.d. streams") {
    val reps = 10
    (0 until reps).foreach { r =>
      val rng = new Random(100 + r)
      val s = DeterministicSpaceSaving[Int](10, seed = 100 + r)
      // Items 0,1 each ~20%; tail spread over 300 items.
      (1 to 20000).foreach { _ =>
        val u = rng.nextDouble()
        val x = if (u < 0.2) 0 else if (u < 0.4) 1 else 2 + rng.nextInt(300)
        s.update(x)
      }
      assert(s.contains(0) && s.contains(1))
      assert(s.summary.topK(2).map(_.item).toSet == Set(0, 1))
    }
  }

  test("misraGriesSummary.estimate is (N_i - N_min)+ and sandwiches truth") {
    val rng = new Random(7)
    val stream = Array.fill(6000)(if (rng.nextDouble() < 0.3) rng.nextInt(5) else rng.nextInt(400))
    val s = DeterministicSpaceSaving[Int](15, seed = 7)
    stream.foreach(s.update(_))
    val truth = trueCounts(stream.toSeq)
    val mgs = s.misraGriesSummary
    (0 until 400).foreach { i =>
      val mg = mgs.estimate(i)
      assert(mg == math.max(0.0, s.estimate(i) - s.minCount))
      assert(mg <= truth.getOrElse(i, 0L).toDouble + 1e-9, s"MG view over-estimates item $i")
    }
  }

  test("misraGriesSummary drops thresholded bins and keeps the undercount within t/m") {
    val rng = new Random(8)
    val stream = Array.fill(5000)(rng.nextInt(150))
    val m = 30
    val s = DeterministicSpaceSaving[Int](m, seed = 8)
    stream.foreach(s.update(_))
    val truth = trueCounts(stream.toSeq)
    val mg = s.misraGriesSummary
    assert(mg.entries.size <= m)
    mg.entries.foreach { e =>
      val n = truth.getOrElse(e.item, 0L).toDouble
      assert(n - e.count <= stream.length.toDouble / m + 1e-9)
    }
  }

  test("deterministic: same stream gives identical results regardless of seed") {
    // With p = 1 the only randomness is min-bin tie-breaking; on a stream
    // without eviction ties the results must agree.
    val counts = Seq(100L, 50L, 25L, 12L)
    val a = DeterministicSpaceSaving[Int](4, seed = 1)
    val b = DeterministicSpaceSaving[Int](4, seed = 999)
    val stream = shuffledStream(counts, seed = 3)
    a.updateAll(stream); b.updateAll(stream)
    counts.indices.foreach(i => assert(a.estimate(i) == b.estimate(i)))
  }
}
