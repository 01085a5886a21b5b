package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Streams.Order

class StreamsSpec extends AnyFunSuite {

  test("weibull counts: deterministic, positive, monotone along the grid") {
    val a = Streams.weibullCounts(100, shape = 0.5, scale = 10.0)
    val b = Streams.weibullCounts(100, shape = 0.5, scale = 10.0)
    assert(a.toSeq == b.toSeq)
    assert(a.forall(_ >= 1))
    assert(a.toSeq == a.sorted.toSeq, "grid quantiles must be non-decreasing")
  }

  test("weibull counts: smaller shape is more skewed") {
    val heavy = Streams.weibullCounts(1000, shape = 0.3, scale = 1.0)
    val light = Streams.weibullCounts(1000, shape = 1.0, scale = 1.0)
    def skew(c: Array[Long]) = c.max.toDouble / (c.sum.toDouble / c.length)
    assert(skew(heavy) > skew(light))
  }

  test("weibull counts: invalid parameters rejected") {
    assertThrows[IllegalArgumentException](Streams.weibullCounts(0, 1.0, 1.0))
    assertThrows[IllegalArgumentException](Streams.weibullCounts(10, 0.0, 1.0))
    assertThrows[IllegalArgumentException](Streams.weibullCounts(10, 1.0, -1.0))
  }

  private val counts = Array(1L, 2L, 3L, 4L, 10L, 20L)

  test("expand: every ordering is a permutation of the item multiset") {
    Seq(Order.Permuted, Order.SortedAscending, Order.TwoHalves).foreach { o =>
      val rows = Streams.expand(counts, o, seed = 5)
      assert(rows.length == counts.sum)
      val freq = rows.groupBy(identity).view.mapValues(_.length.toLong).toMap
      counts.indices.foreach(i => assert(freq.getOrElse(i, 0L) == counts(i), s"order $o item $i"))
    }
  }

  test("expand: sorted ascending puts low-frequency items first") {
    val rows = Streams.expand(counts, Order.SortedAscending, seed = 1)
    assert(rows.toSeq == rows.sorted.toSeq)
  }

  test("expand: two halves keeps first-half items strictly before second-half items") {
    val rows = Streams.expand(counts, Order.TwoHalves, seed = 9)
    val cut = counts.length / 2
    val lastFirstHalf = rows.lastIndexWhere(_ < cut)
    val firstSecondHalf = rows.indexWhere(_ >= cut)
    assert(lastFirstHalf < firstSecondHalf)
  }

  test("expand: permutation is deterministic per seed and differs across seeds") {
    val a = Streams.expand(counts, Order.Permuted, seed = 3)
    val b = Streams.expand(counts, Order.Permuted, seed = 3)
    val c = Streams.expand(counts, Order.Permuted, seed = 4)
    assert(a.toSeq == b.toSeq)
    assert(a.toSeq != c.toSeq)
  }

  test("epochs: contiguous equal partition of the item range") {
    val eps = Streams.epochs(100, 10)
    assert(eps.size == 10)
    assert(eps.flatten == (0 until 100))
    eps.foreach(e => assert(e.size == 10))
    assertThrows[IllegalArgumentException](Streams.epochs(100, 7))
  }

  test("random subsets: right size, in range, deterministic") {
    val subs = Streams.randomSubsets(500, 50, 20, seed = 6)
    assert(subs.size == 20)
    subs.foreach { s =>
      assert(s.size == 50)
      assert(s.forall(i => i >= 0 && i < 500))
    }
    assert(subs == Streams.randomSubsets(500, 50, 20, seed = 6))
    assert(subs != Streams.randomSubsets(500, 50, 20, seed = 7))
  }
}
