package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._
import scala.util.Random

class MergeSpec extends AnyFunSuite {

  private def sketchOf(counts: Seq[Long], m: Int, seed: Long): SketchSummary[Int] = {
    val s = UnbiasedSpaceSaving[Int](m, seed)
    s.updateAll(shuffledStream(counts, seed * 31 + 7))
    s.summary
  }

  /** `Merge.combine`'s columns as a map, and its total. */
  private def combineMap[T](sketches: Seq[SketchSummary[T]]): (Map[T, Double], Double) = {
    val (items, counts, total) = Merge.combine(sketches)
    (items.iterator.map(_.asInstanceOf[T]).zip(counts).toMap, total)
  }

  test("combine unions labels and sums counts and totals") {
    val a = SketchSummary(Vector(Entry("x", 3.0), Entry("y", 2.0)), 0.0, 5.0, 4)
    val b = SketchSummary(Vector(Entry("y", 4.0), Entry("z", 1.0)), 0.0, 5.0, 4)
    val (acc, total) = combineMap(Seq(a, b))
    assert(total == 10.0)
    assert(acc("x") == 3.0 && acc("y") == 6.0 && acc("z") == 1.0)
  }

  test("combine keeps the labels, order and count bits of a map updated entry by entry") {
    val r = new java.util.SplittableRandom(41)
    (0 until 500).foreach { trial =>
      val sketches = Seq.fill(1 + r.nextInt(4)) {
        val n = r.nextInt(60)
        val keys = Seq.fill(n)(r.nextInt(3 * n + 1)).distinct
        SketchSummary(keys.map(k => Entry[Any](if (trial % 2 == 0) k else s"k$k", 0.1 + 9 * r.nextDouble())).toVector,
          0.0, 1.0, n)
      }
      val ref = scala.collection.mutable.HashMap.empty[Any, Double]
      sketches.foreach(_.entries.foreach { e =>
        ref.updateWith(e.item) { case Some(c) => Some(c + e.count); case None => Some(e.count) }
      })
      val (items, counts, total) = Merge.combine(sketches)
      assert(items.toSeq == ref.keys.toSeq && total == sketches.size.toDouble)
      assert(counts.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
             ref.values.toSeq.map(java.lang.Double.doubleToRawLongBits))
    }
  }

  test("all merges are lossless when the union fits in m bins") {
    val a = SketchSummary(Vector(Entry(1, 3.0), Entry(2, 2.0)), 0.0, 5.0, 4)
    val b = SketchSummary(Vector(Entry(2, 4.0), Entry(3, 1.0)), 0.0, 5.0, 4)
    val pair = Merge.pairwiseUnbiased(4, 1, Seq(a, b)).summary
    val prio = Merge.prioritySampled(4, 1, Seq(a, b)).summary
    val mg = Merge.misraGries(4, Seq(a, b))
    Seq(pair, prio, mg).foreach { s =>
      assert(s.estimate(1) == 3.0 && s.estimate(2) == 6.0 && s.estimate(3) == 1.0)
      assert(s.total == 10.0)
    }
  }

  test("pairwise merge preserves the total weight exactly") {
    val rng = new Random(1)
    (0 until 20).foreach { r =>
      val sketches = (0 until 4).map { s =>
        sketchOf(Seq.fill(60)(1L + rng.nextInt(20).toLong), m = 15, seed = r * 10 + s)
      }
      val trueTotal = sketches.map(_.total).sum
      val merged = Merge.pairwiseUnbiased(15, seed = 99 + r, sketches)
      assert(math.abs(merged.totalWeight - trueTotal) < 1e-6)
      assert(math.abs(merged.summary.entries.map(_.count).sum - trueTotal) < 1e-6)
      assert(merged.size <= 15)
    }
  }

  test("pairwise merge is unbiased per item given the inputs (Monte Carlo)") {
    // Fixed input summaries; randomness only in the merge reduction.
    val a = SketchSummary((1 to 12).map(i => Entry(i, i.toDouble)).toVector, 1.0, 78.0, 12)
    val b = SketchSummary((7 to 18).map(i => Entry(i, 2.0)).toVector, 2.0, 24.0, 12)
    val combined = combineMap(Seq(a, b))._1
    val reps = 4000
    val ests = (0 until reps).map { r =>
      val mgd = Merge.pairwiseUnbiased(12, seed = 1000 + r, Seq(a, b)).summary
      combined.keys.toSeq.sorted.map(mgd.estimate)
    }
    combined.keys.toSeq.sorted.zipWithIndex.foreach { case (item, idx) =>
      assertUnbiased(ests.map(_(idx)), combined(item), z = 4.5, label = s"item $item")
    }
  }

  test("priority-sampled merge is unbiased per item given the inputs (Monte Carlo)") {
    val a = SketchSummary((1 to 12).map(i => Entry(i, i.toDouble)).toVector, 1.0, 78.0, 12)
    val b = SketchSummary((7 to 18).map(i => Entry(i, 2.0)).toVector, 2.0, 24.0, 12)
    val combined = combineMap(Seq(a, b))._1
    val reps = 4000
    val ests = (0 until reps).map { r =>
      val mgd = Merge.prioritySampled(12, seed = 5000 + r, Seq(a, b)).summary
      combined.keys.toSeq.sorted.map(mgd.estimate)
    }
    combined.keys.toSeq.sorted.zipWithIndex.foreach { case (item, idx) =>
      assertUnbiased(ests.map(_(idx)), combined(item), z = 4.5, label = s"item $item")
    }
  }

  test("priority-sampled merge preserves the expected total (Monte Carlo)") {
    val a = SketchSummary((1 to 20).map(i => Entry(i, i.toDouble)).toVector, 1.0, 210.0, 20)
    val b = SketchSummary((15 to 34).map(i => Entry(i, 3.0)).toVector, 3.0, 60.0, 20)
    val trueCombined = combineMap(Seq(a, b))._1.values.sum
    val reps = 3000
    val totals = (0 until reps).map { r =>
      Merge.prioritySampled(20, seed = 7000 + r, Seq(a, b)).summary.entries.map(_.count).sum
    }
    assertUnbiased(totals, trueCombined, z = 4.5, label = "total")
  }

  test("both unbiased merges respect the bin capacity") {
    val rng = new Random(2)
    val sketches = (0 until 6).map { s =>
      sketchOf(Seq.fill(40)(1L + rng.nextInt(9).toLong), m = 10, seed = 50 + s)
    }
    assert(Merge.pairwiseUnbiased(10, 1, sketches).size <= 10)
    assert(Merge.prioritySampled(10, 1, sketches).size <= 10)
    assert(Merge.misraGries(10, sketches).entries.size <= 10)
  }

  test("misra-gries merge is a downward-biased soft threshold") {
    val a = SketchSummary((1 to 10).map(i => Entry(i, i.toDouble)).toVector, 1.0, 55.0, 10)
    val b = SketchSummary((6 to 15).map(i => Entry(i, 2.0)).toVector, 2.0, 20.0, 10)
    val combined = combineMap(Seq(a, b))._1
    val mg = Merge.misraGries(10, Seq(a, b))
    assert(mg.entries.size <= 10)
    mg.entries.foreach { e =>
      assert(e.count <= combined(e.item) + 1e-9, "soft threshold must not inflate counts")
    }
    assert(mg.entries.map(_.count).sum < combined.values.sum, "merge must remove mass")
  }

  test("merged sketch keeps ingesting and preserves totals") {
    val a = sketchOf(Seq.fill(30)(3L), m = 8, seed = 1)
    val b = sketchOf(Seq.fill(30)(2L), m = 8, seed = 2)
    val merged = Merge.pairwiseUnbiased(8, 7, Seq(a, b))
    val before = merged.totalWeight
    (1 to 100).foreach(_ => merged.update(999))
    assert(merged.totalWeight == before + 100)
    assert(math.abs(merged.summary.entries.map(_.count).sum - (before + 100)) < 1e-6)
  }

  test("merge of a single sketch with itself doubles counts in the lossless regime") {
    val a = SketchSummary(Vector(Entry(1, 5.0), Entry(2, 3.0)), 0.0, 8.0, 4)
    val m = Merge.pairwiseUnbiased(4, 3, Seq(a, a)).summary
    assert(m.estimate(1) == 10.0 && m.estimate(2) == 6.0)
  }
}
