package repro.spark

import org.scalatest.funsuite.AnyFunSuite
import repro.core.UnbiasedSpaceSaving

/** Pure-JVM tests of the aggregator contract (no SparkSession needed). */
class SketchAggregatorSpec extends AnyFunSuite {

  private val agg = new UnbiasedSpaceSavingAgg(m = 8, seed = 1)

  test("zero produces an empty sketch of the right capacity") {
    val b = agg.zero
    assert(b.m == 8 && b.size == 0 && b.totalWeight == 0.0)
  }

  test("reduce applies weighted updates") {
    val b = agg.zero
    agg.reduce(b, ItemWeight("a", 2.0))
    agg.reduce(b, ItemWeight("a", 1.0))
    agg.reduce(b, ItemWeight("b", 4.0))
    assert(b.estimate("a") == 3.0 && b.estimate("b") == 4.0)
    assert(b.totalWeight == 7.0)
  }

  test("reduce skips zero-weight rows") {
    val withZeros = agg.zero
    val without = agg.zero
    Seq("a" -> 2.0, "z" -> 0.0, "a" -> -0.0, "b" -> 1.5, "b" -> 0.0).foreach { case (i, w) =>
      agg.reduce(withZeros, ItemWeight(i, w))
      if (w != 0.0) agg.reduce(without, ItemWeight(i, w))
    }
    assert(withZeros.summary == without.summary)
    assert(!withZeros.contains("z") && withZeros.totalWeight == 3.5 && withZeros.size == 2)
  }

  test("reduce rejects NaN, infinite and negative weights, naming the weight") {
    Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -3.0).foreach { w =>
      val e = intercept[IllegalArgumentException](agg.reduce(agg.zero, ItemWeight("a", w)))
      assert(e.getMessage.contains(s"got $w"), e.getMessage)
    }
  }

  test("a null item is counted as one item with a null label") {
    val b = agg.zero
    Seq[(String, Double)]((null, 1.0), ("a", 2.0), (null, 3.0)).foreach { case (i, w) => agg.reduce(b, ItemWeight(i, w)) }
    assert(b.estimate(null) == 4.0 && b.size == 2)
    assert(agg.finish(b).entries.toSeq.contains(SketchEntryRow(null, 4.0)))
  }

  test("merge is lossless when buffers fit and preserves totals otherwise") {
    val b1 = agg.zero; val b2 = agg.zero
    Seq("a" -> 3.0, "b" -> 2.0).foreach { case (i, w) => agg.reduce(b1, ItemWeight(i, w)) }
    Seq("b" -> 5.0, "c" -> 1.0).foreach { case (i, w) => agg.reduce(b2, ItemWeight(i, w)) }
    val m = agg.merge(b1, b2)
    assert(m.estimate("a") == 3.0 && m.estimate("b") == 7.0 && m.estimate("c") == 1.0)
    assert(m.totalWeight == 11.0)
  }

  test("merge reduces over-capacity unions to m bins with the exact total") {
    val big = new UnbiasedSpaceSavingAgg(m = 4, seed = 2)
    val b1 = big.zero; val b2 = big.zero
    (0 until 4).foreach(i => big.reduce(b1, ItemWeight(s"x$i", i + 1.0)))
    (4 until 8).foreach(i => big.reduce(b2, ItemWeight(s"x$i", i + 1.0)))
    val m = big.merge(b1, b2)
    assert(m.size == 4)
    assert(math.abs(m.totalWeight - 36.0) < 1e-9)
    assert(math.abs(m.entriesVector.map(_.count).sum - 36.0) < 1e-9)
  }

  test("in the exact regime every merge order of four partials gives the same bins and total") {
    // Dyadic weights, so every summation order is exact in floating point.
    val rows = Seq(
      Seq("a" -> 1.5, "b" -> 2.0, "a" -> 0.25),
      Seq("b" -> 4.0, "c" -> 0.5, (null: String) -> 1.0),
      Seq("d" -> 3.0, "a" -> 1.0, "e" -> 0.75, "b" -> 0.125),
      Seq("c" -> 2.5, "f" -> 8.0, (null: String) -> 0.5, "g" -> 1.0))
    val union = rows.flatten.map(_._1).distinct
    assert(union.size <= 8, "the union fits in m bins")
    val parts = rows.map { rs =>
      val b = agg.zero
      rs.foreach { case (i, w) => agg.reduce(b, ItemWeight(i, w)) }
      b
    }
    val expected = rows.flatten.groupMapReduce(_._1)(_._2)(_ + _)
    val results = parts.permutations.map { order =>
      val merged = order.reduceLeft(agg.merge)
      (merged.entriesVector.map(e => (e.item, e.count)).sortBy { case (i, c) => (c, String.valueOf(i)) },
        merged.totalWeight)
    }.toSeq
    assert(results.size == 24)
    results.foreach { case (bins, total) =>
      assert(bins.toMap == expected && bins.size == union.size)
      assert(total == rows.flatten.map(_._2).sum)
    }
    assert(results.distinct.size == 1)
  }

  test("finish emits entries, minCount and total that round-trip to a summary") {
    val b = agg.zero
    Seq("a" -> 5.0, "b" -> 2.0).foreach { case (i, w) => agg.reduce(b, ItemWeight(i, w)) }
    val out = agg.finish(b)
    assert(out.total == 7.0)
    assert(out.minCount == 0.0) // not full
    val s = out.toSummary(8)
    assert(s.estimate("a") == 5.0 && s.estimate("b") == 2.0 && s.m == 8)
  }

  test("aggregators with the same seed build identical sketches outside a task") {
    def build(): UnbiasedSpaceSaving[String] = {
      val a = new UnbiasedSpaceSavingAgg(m = 3, seed = 7)
      val b = a.zero
      (0 until 50).foreach(i => a.reduce(b, ItemWeight(s"k${i % 9}", 1.0)))
      b
    }
    assert(build().summary == build().summary)
  }

  test("buffer survives Java serialization round-trip") {
    val b = agg.zero
    (0 until 30).foreach(i => agg.reduce(b, ItemWeight(s"k${i % 12}", 1.0)))
    val bytes = {
      val bos = new java.io.ByteArrayOutputStream()
      val oos = new java.io.ObjectOutputStream(bos)
      oos.writeObject(b); oos.close()
      bos.toByteArray
    }
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes))
      .readObject().asInstanceOf[UnbiasedSpaceSaving[String]]
    assert(back.summary == b.summary)
    // The revived buffer keeps working.
    back.update("k0")
    assert(back.totalWeight == b.totalWeight + 1.0)
  }
}
