package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._
import scala.util.Random

class UnbiasedSpaceSavingSpec extends AnyFunSuite {

  test("empty sketch has no entries, zero estimates, zero total") {
    val s = UnbiasedSpaceSaving[String](4, seed = 1)
    assert(s.size == 0)
    assert(s.totalWeight == 0.0)
    assert(s.minCount == 0.0)
    assert(s.estimate("x") == 0.0)
    assert(!s.contains("x"))
    assert(s.summary.entries.isEmpty)
  }

  test("single repeated item is counted exactly") {
    val s = UnbiasedSpaceSaving[String](4, seed = 2)
    (1 to 57).foreach(_ => s.update("a"))
    assert(s.estimate("a") == 57.0)
    assert(s.totalWeight == 57.0)
  }

  test("with fewer distinct items than bins every count is exact") {
    val s = UnbiasedSpaceSaving[Int](10, seed = 3)
    val counts = Seq(40L, 30L, 20L, 5L, 1L)
    s.updateAll(shuffledStream(counts, seed = 9))
    counts.zipWithIndex.foreach { case (c, i) => assert(s.estimate(i) == c.toDouble) }
    assert(s.minCount == 0.0)
  }

  test("with exactly m distinct items every count is exact") {
    val counts = Seq(17L, 11L, 7L, 3L, 2L)
    val s = UnbiasedSpaceSaving[Int](5, seed = 4)
    s.updateAll(shuffledStream(counts, seed = 10))
    counts.zipWithIndex.foreach { case (c, i) => assert(s.estimate(i) == c.toDouble) }
  }

  test("sum of bin counts equals rows processed for any stream") {
    val rng = new Random(5)
    val s = UnbiasedSpaceSaving[Int](7, seed = 5)
    val stream = Array.fill(5000)(rng.nextInt(300))
    stream.foreach(s.update(_))
    assert(s.summary.entries.map(_.count).sum == 5000.0)
    assert(s.totalWeight == 5000.0)
  }

  test("weighted updates preserve total weight exactly") {
    val rng = new Random(6)
    val s = UnbiasedSpaceSaving[Int](5, seed = 6)
    var total = 0.0
    (1 to 2000).foreach { _ =>
      val w = rng.nextDouble() * 10 + 0.1
      total += w
      s.update(rng.nextInt(100), w)
    }
    assert(math.abs(s.totalWeight - total) < 1e-6)
    assert(math.abs(s.summary.entries.map(_.count).sum - total) < 1e-6)
  }

  test("non-positive weights are rejected") {
    val s = UnbiasedSpaceSaving[Int](3, seed = 7)
    assertThrows[IllegalArgumentException](s.update(1, 0.0))
    assertThrows[IllegalArgumentException](s.update(1, -2.0))
  }

  test("NaN, infinite and negative weights are rejected by name and leave the sketch as it was") {
    Seq[SpaceSavingBase[Int]](UnbiasedSpaceSaving[Int](3, seed = 7), DeterministicSpaceSaving[Int](3, seed = 7))
      .foreach { s =>
        s.update(1, 2.5)
        val before = s.summary
        Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -1.5, 0.0).foreach { w =>
          val e = intercept[IllegalArgumentException](s.update(2, w))
          assert(e.getMessage.contains(s"got $w"), e.getMessage)
        }
        assert(s.summary == before && s.totalWeight == 2.5)
      }
  }

  test("NaN items are rejected by name and leave the sketch as it was") {
    // A NaN never == itself, so each NaN row would open a bin no query finds.
    def sketches = Seq[SpaceSavingBase[Any]](UnbiasedSpaceSaving[Any](2, seed = 7), DeterministicSpaceSaving[Any](2, seed = 7))
    sketches.zip(sketches).foreach { case (s, twin) =>
      // NaN arrives at an empty sketch, at a free bin, then at a full sketch.
      (1 to 6).map(_.toDouble).foreach { x =>
        Seq[Any](Double.NaN, Float.NaN).foreach { nan =>
          val e = intercept[IllegalArgumentException](s.update(nan))
          assert(e.getMessage.contains("got NaN"), e.getMessage)
        }
        s.update(x); twin.update(x)
        assert(s.summary == twin.summary && s.totalWeight == twin.totalWeight, s"after $x")
      }
    }
  }

  test("m must be positive") {
    assertThrows[IllegalArgumentException](UnbiasedSpaceSaving[Int](0, seed = 1))
  }

  test("m=1 sketch holds the entire total in one bin") {
    val s = UnbiasedSpaceSaving[Int](1, seed = 8)
    val rng = new Random(8)
    (1 to 500).foreach(_ => s.update(rng.nextInt(50)))
    assert(s.size == 1)
    assert(s.summary.entries.head.count == 500.0)
  }

  test("never more than m bins") {
    val s = UnbiasedSpaceSaving[Int](6, seed = 9)
    (0 until 1000).foreach(s.update(_))
    assert(s.size == 6)
  }

  test("minCount is at most the mean bin size t/m") {
    val s = UnbiasedSpaceSaving[Int](8, seed = 10)
    val rng = new Random(10)
    (1 to 4000).foreach(_ => s.update(rng.nextInt(500)))
    assert(s.minCount <= 4000.0 / 8 + 1e-9)
  }

  test("same seed and stream give identical summaries") {
    def build() = {
      val s = UnbiasedSpaceSaving[Int](5, seed = 42)
      s.updateAll(shuffledStream(Seq.fill(40)(5L), seed = 11))
      s.summary
    }
    assert(build() == build())
  }

  test("theorem 1: per-item estimates are unbiased (Monte Carlo)") {
    // Counts skewed enough that evictions happen constantly with m = 3.
    val counts = Seq(30L, 12L, 6L, 3L, 2L, 1L, 1L, 1L)
    val truth = counts.map(_.toDouble)
    val reps = 3000
    val ests = (0 until reps).map { r =>
      val s = UnbiasedSpaceSaving[Int](3, seed = 1000 + r)
      s.updateAll(shuffledStream(counts, seed = 2000 + r))
      counts.indices.map(i => s.estimate(i))
    }
    counts.indices.foreach { i =>
      assertUnbiased(ests.map(_(i)), truth(i), z = 4.5, label = s"item $i")
    }
  }

  test("theorem 2: subset sums are unbiased (Monte Carlo)") {
    val counts = Seq(25L, 10L, 8L, 4L, 2L, 2L, 1L, 1L, 1L, 1L)
    val subset = Set(1, 3, 5, 7, 9)
    val truth = subset.toSeq.map(counts(_).toDouble).sum
    val reps = 3000
    val ests = (0 until reps).map { r =>
      val s = UnbiasedSpaceSaving[Int](4, seed = 5000 + r)
      s.updateAll(shuffledStream(counts, seed = 6000 + r))
      s.summary.subsetSumOf(subset).value
    }
    assertUnbiased(ests, truth, z = 4.5, label = "subset")
  }

  test("weighted updates remain unbiased (Monte Carlo)") {
    // Item 0 arrives as two weight-5 rows, others as unit rows.
    val reps = 4000
    val ests = (0 until reps).map { r =>
      val s = UnbiasedSpaceSaving[Int](2, seed = 7000 + r)
      val rng = new Random(8000 + r)
      val rows: Seq[(Int, Double)] =
        rng.shuffle(Seq((0, 5.0), (0, 5.0)) ++ (1 to 12).map(i => (i, 1.0)))
      rows.foreach { case (i, w) => s.update(i, w) }
      s.estimate(0)
    }
    assertUnbiased(ests, 10.0, z = 4.5, label = "weighted item")
  }

  test("paper §6.3 example: sketch keeps items 1,2 with probability ~(c/(c+1))^2") {
    val c = 20
    val reps = 4000
    var both = 0
    (0 until reps).foreach { r =>
      val s = UnbiasedSpaceSaving[Int](2, seed = 9000 + r)
      (1 to c).foreach(_ => s.update(1))
      (1 to c).foreach(_ => s.update(2))
      s.update(3); s.update(4)
      if (s.contains(1) && s.contains(2)) both += 1
    }
    val p = both.toDouble / reps
    val expected = math.pow(c / (c + 1.0), 2)
    val se = math.sqrt(expected * (1 - expected) / reps)
    assert(math.abs(p - expected) < 5 * se, s"p=$p expected=$expected")
  }

  test("theorem 3: an absolutely frequent item becomes sticky with a near-exact count") {
    // p_1 = 0.3 > 1/m = 0.1; long i.i.d. stream.
    val rng = new Random(77)
    val n = 60000
    val reps = 20
    var present = 0
    var relErrSum = 0.0
    (0 until reps).foreach { r =>
      val s = UnbiasedSpaceSaving[Int](10, seed = 100 + r)
      val rng2 = new Random(200 + r)
      var n1 = 0
      (1 to n).foreach { _ =>
        val x = if (rng2.nextDouble() < 0.3) { n1 += 1; 0 } else 1 + rng2.nextInt(500)
        s.update(x)
      }
      if (s.contains(0)) { present += 1; relErrSum += math.abs(s.estimate(0) - n1) / n1 }
    }
    assert(present == reps, s"frequent item missing in ${reps - present}/$reps runs")
    assert(relErrSum / present < 0.05, s"mean rel err ${relErrSum / present} too large")
  }

  test("theorem 10: worst-case inclusion probability is attained by the adversarial sequence") {
    // n_tot - n_i distinct items then item i repeated n_i times.
    val m = 5
    val nTot = 100
    val ni = 20
    val reps = 3000
    var in = 0
    (0 until reps).foreach { r =>
      val s = UnbiasedSpaceSaving[Int](m, seed = 300 + r)
      (1 to (nTot - ni)).foreach(j => s.update(j))
      (1 to ni).foreach(_ => s.update(0))
      if (s.contains(0)) in += 1
    }
    val pi = in.toDouble / reps
    val bound = 1 - math.pow(1 - ni.toDouble / nTot, m)
    val se = math.sqrt(bound * (1 - bound) / reps)
    assert(pi >= bound - 5 * se, s"pi=$pi below worst-case bound $bound")
    // The construction attains the bound, so it should also not exceed it by much.
    assert(pi <= bound + 6 * se, s"pi=$pi far above the supposedly tight bound $bound")
  }

  test("estimates are positive exactly for in-sketch items") {
    val s = UnbiasedSpaceSaving[Int](5, seed = 11)
    val rng = new Random(11)
    (1 to 2000).foreach(_ => s.update(rng.nextInt(100)))
    (0 until 100).foreach { i =>
      assert((s.estimate(i) > 0) == s.contains(i))
    }
  }

  test("fromEntries restores estimates and allows further updates") {
    val entries = Seq(Entry("a", 10.0), Entry("b", 5.5), Entry("c", 1.0))
    val s = UnbiasedSpaceSaving.fromEntries(4, seed = 12, entries, total = 16.5)
    assert(s.estimate("a") == 10.0 && s.estimate("b") == 5.5 && s.estimate("c") == 1.0)
    assert(s.totalWeight == 16.5)
    s.update("d"); s.update("d")
    assert(s.totalWeight == 18.5)
    assert(s.summary.entries.map(_.count).sum == 18.5)
  }

  test("fromEntries rejects overfull or duplicate loads") {
    assertThrows[IllegalArgumentException](
      UnbiasedSpaceSaving.fromEntries(2, 1, Seq(Entry(1, 1.0), Entry(2, 1.0), Entry(3, 1.0)), 3.0))
    assertThrows[IllegalArgumentException](
      UnbiasedSpaceSaving.fromEntries(3, 1, Seq(Entry(1, 1.0), Entry(1, 2.0)), 3.0))
    assertThrows[IllegalArgumentException](
      UnbiasedSpaceSaving.fromEntries(3, 1, Seq(Entry(1, -1.0)), -1.0))
    assertThrows[IllegalArgumentException](
      UnbiasedSpaceSaving.fromEntries(3, 1, Seq(Entry(1.0, 1.0), Entry(Double.NaN, 1.0)), 2.0))
    // Non-finite counts are rejected, naming the entry, as update rejects
    // infinite weights; so is a non-finite or negative total.
    Seq(Double.PositiveInfinity, Double.NaN, 0.0).foreach { c =>
      val e = intercept[IllegalArgumentException](
        UnbiasedSpaceSaving.fromEntries(3, 1, Seq(Entry(1, 1.0), Entry(2, c)), 1.0))
      assert(e.getMessage.contains(s"got ${Entry(2, c)}"), e.getMessage)
    }
    Seq(Double.PositiveInfinity, Double.NaN, -1.0).foreach { t =>
      val e = intercept[IllegalArgumentException](UnbiasedSpaceSaving.fromEntries(3, 1, Seq(Entry(1, 1.0)), t))
      assert(e.getMessage.contains(s"got $t"), e.getMessage)
    }
  }

  test("updateAll matches repeated update") {
    val a = UnbiasedSpaceSaving[Int](4, seed = 13)
    val b = UnbiasedSpaceSaving[Int](4, seed = 13)
    val stream = shuffledStream(Seq(9L, 7L, 5L, 3L, 1L), seed = 13)
    a.updateAll(stream)
    stream.foreach(b.update(_))
    assert(a.summary == b.summary)
  }

  test("summary snapshot is immutable under further updates") {
    val s = UnbiasedSpaceSaving[Int](3, seed = 14)
    s.update(1); s.update(2)
    val snap = s.summary
    (1 to 100).foreach(_ => s.update(3))
    assert(snap.total == 2.0)
    assert(snap.estimate(3) == 0.0)
  }
}
