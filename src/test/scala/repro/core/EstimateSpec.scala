package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._

class EstimateSpec extends AnyFunSuite {

  test("stddev is the square root of the variance") {
    assert(Estimate(10.0, 25.0).stddev == 5.0)
  }

  test("ci95 is symmetric around the value with the 1.96 width") {
    val e = Estimate(100.0, 16.0)
    val (lo, hi) = e.ci
    assert(math.abs((lo + hi) / 2 - 100.0) < 1e-9)
    assert(math.abs(hi - 100.0 - 1.959964 * 4.0) < 1e-4)
  }

  test("covers is true exactly inside the interval") {
    val e = Estimate(50.0, 4.0) // sd 2, 95% half-width ~3.92
    assert(e.covers(50.0))
    assert(e.covers(53.0))
    assert(!e.covers(55.0))
    assert(!e.covers(45.0))
  }

  test("zero-variance estimate covers only its own value") {
    val e = Estimate(7.0, 0.0)
    assert(e.covers(7.0))
    assert(!e.covers(7.001))
  }
}

class SketchSummarySpec extends AnyFunSuite {
  import SketchSummarySpec.Colliding

  private val s = SketchSummary(
    Vector(Entry("a", 50.0), Entry("b", 30.0), Entry("c", 10.0), Entry("d", 10.0)),
    minCount = 10.0, total = 100.0, m = 4)

  test("estimate and contains agree with the entry list") {
    assert(s.estimate("a") == 50.0)
    assert(s.estimate("zz") == 0.0)
    assert(s.contains("c") && !s.contains("zz"))
  }

  test("subsetSum adds matching entries") {
    assert(s.subsetSumOf(Set("a", "c")).value == 60.0)
    assert(s.subsetSum(_ => true).value == 100.0)
    assert(s.subsetSumOf(Set.empty[String]).value == 0.0)
  }

  test("eq.5 variance: N̂_min² times the number of matching bins, floored at one") {
    assert(s.subsetSumOf(Set("a", "c")).variance == 10.0 * 10.0 * 2)
    assert(s.subsetSumOf(Set("a")).variance == 100.0)
    // Empty subsets still get the worst-case single-item variance C_S = 1.
    assert(s.subsetSumOf(Set("zz")).variance == 100.0)
  }

  test("frequentItems applies the relative threshold") {
    assert(s.frequentItems(0.25).map(_.item) == Vector("a", "b"))
    assert(s.frequentItems(0.45).map(_.item) == Vector("a"))
    assert(s.frequentItems(0.6).isEmpty)
    assertThrows[IllegalArgumentException](s.frequentItems(0.0))
  }

  test("topK returns the largest bins in order") {
    assert(s.topK(2).map(_.item) == Vector("a", "b"))
    assert(s.topK(10).size == 4)
    assert(s.topK(0).isEmpty)
  }

  test("topK and frequentItems equal a stable sort on count over tied, reordered summaries") {
    val r = new java.util.SplittableRandom(19)
    def shuffled[A](xs: Vector[A]): Vector[A] = {
      val a = xs.toArray[Any]
      (a.length - 1 to 1 by -1).foreach { i =>
        val j = r.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t
      }
      a.toVector.asInstanceOf[Vector[A]]
    }
    var tiedTops = 0
    (0 until 300).foreach { trial =>
      // Counts from four small integers, so most bins tie; every tenth
      // summary also draws the values a total order sorts apart from `<`.
      val pool = if (trial % 10 == 9) Vector(0.0, -0.0, 1.0, 2.0, Double.NaN, Double.PositiveInfinity)
                 else Vector(1.0, 2.0, 3.0, 4.0)
      val n = r.nextInt(60)
      val bins = Vector.tabulate(n)(i => Entry(s"i$i", pool(r.nextInt(pool.size))))
      Seq(bins.sortBy(_.count), bins.sortBy(-_.count), shuffled(bins)).foreach { entries =>
        val s = SketchSummary(entries, minCount = 1.0, total = entries.map(_.count).sum, m = n)
        Seq(-1, 0, 1, n - 1, n, n + 5).foreach { k =>
          assert(s.topK(k) == entries.sortBy(-_.count).take(k), s"topK($k) of $entries")
        }
        val cuts = pool.filter(c => c > 0 && c < s.total).flatMap(c => Seq(c - 0.5, c).map(_ / s.total))
        cuts.filter(phi => phi > 0 && phi < 1).foreach { phi =>
          assert(s.frequentItems(phi) == entries.filter(_.count > phi * s.total).sortBy(-_.count),
                 s"frequentItems($phi) of $entries")
        }
        if (n >= 2 && s.topK(2).map(_.count).distinct.size == 1) tiedTops += 1
      }
    }
    assert(tiedTops >= 100, s"only $tiedTops summaries tie at the top")
  }

  test("size reports occupied bins") {
    assert(s.size == 4)
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  private def bits(e: Estimate): (Long, Long) = (bits(e.value), bits(e.variance))

  /** `subsetSumOf` must return the predicate scan's value and variance, bits
    * and all.
    */
  private def assertSameAsScan[T](summary: SketchSummary[T], set: Set[T]): Unit = {
    val got = summary.subsetSumOf(set)
    val scan = summary.subsetSum(set.contains)
    assert(bits(got) == bits(scan), s"$got vs scan $scan: ${set.size} items, ${summary.size} bins")
  }

  test("subsetSumOf equals the scan bit for bit over random sets and summaries, Int and String keys") {
    val r = new java.util.SplittableRandom(5)
    (0 until 300).foreach { k =>
      val m = 1 + r.nextInt(80)
      val items = m + r.nextInt(400)
      val weighted = r.nextBoolean()
      val sk = UnbiasedSpaceSaving[Int](m, seed = k)
      // Rows from 0 (an empty summary) to well past filling; weighted rows
      // give non-integer counts, whose sum depends on the order of addition.
      (0 until r.nextInt(4000)).foreach { _ =>
        sk.update((items * math.pow(r.nextDouble(), 3)).toInt, if (weighted) 0.05 + 5 * r.nextDouble() else 1.0)
      }
      val ints = sk.summary
      val strs = SketchSummary(ints.entries.map(e => Entry("k" + e.item, e.count)), ints.minCount, ints.total, m)
      (0 until 12).foreach { _ =>
        // Sets from empty to twice the bins, over present and absent items.
        val set = Seq.fill(r.nextInt(2 * m + 2))(r.nextInt(items + 20) - 10).toSet
        assertSameAsScan(ints, set)
        assertSameAsScan(strs, set.map("k" + _))
      }
    }
  }

  test("subsetSumOf on the empty set, absent items and a never-filled summary") {
    assert(s.subsetSumOf(Set.empty[String]) == Estimate(0.0, 100.0))
    assert(s.subsetSumOf(Set("zz", "yy")) == Estimate(0.0, 100.0))
    assert(s.subsetSumOf(Set("b", "zz")) == Estimate(30.0, 100.0))
    val sk = UnbiasedSpaceSaving[Int](50, seed = 3)
    (0 until 200).foreach(i => sk.update(i % 20, 0.5 + i % 3))
    val unfilled = sk.summary
    assert(unfilled.minCount == 0.0 && unfilled.size == 20)
    assert(unfilled.subsetSumOf(Set(1, 2, 99)) == Estimate(unfilled.estimate(1) + unfilled.estimate(2), 0.0))
    Seq(Set.empty[Int], Set(99), Set(1, 2, 99), (0 until 19).toSet, (0 until 40).toSet)
      .foreach(assertSameAsScan(unfilled, _))
  }

  test("a hand-built summary that repeats an item is rejected at its first indexed query, naming the item") {
    // Built fresh for each query, so each query is the one that builds the index.
    def dup() = SketchSummary[Any](
      Vector(Entry("a", 1.5), Entry(7, 2.0), Entry("b", 4.0), Entry(7L, 1.0), Entry("c", 1.0)),
      minCount = 1.0, total = 9.5, m = 5)
    val queries: Seq[SketchSummary[Any] => Any] =
      Seq(_.estimate("a"), _.contains("zz"), _.subsetSumOf(Set[Any]("b")), _.subsetSumOf(Set.empty[Any]))
    queries.foreach { q =>
      val e = intercept[IllegalArgumentException](q(dup()))
      assert(e.getMessage.contains("duplicate item 7"), e.getMessage)
    }
    // The predicate scan reads the entries alone and builds no index.
    assert(dup().subsetSum(_ == "a") == Estimate(1.5, 1.0))
  }

  test("items match with Scala's cooperative equality, as Set.contains does") {
    val any = SketchSummary[Any](Vector(Entry(1, 3.0), Entry("x", 2.0), Entry(2.5, 1.0)),
      minCount = 1.0, total = 6.0, m = 3)
    assert(any.subsetSumOf(Set[Any](1L)) == Estimate(3.0, 1.0))
    assert(any.subsetSumOf(Set[Any](1.0, 2.5f)) == Estimate(4.0, 2.0))
    assertSameAsScan(any, Set[Any](1L))
    assert(any.contains(1L) && any.estimate(1.0) == 3.0 && !any.contains(2))
  }

  /** `estimate` and `contains` against a reference `Map` built from the
    * entries, for every item in `queries`; `subsetSumOf` against the scan for
    * a few subsets of them.
    */
  private def assertIndexMatchesMap[T](summary: SketchSummary[T], queries: Seq[T]): Unit = {
    val ref = summary.entries.iterator.map(_.item).zipWithIndex.toMap
    queries.foreach { x =>
      val want = ref.get(x).fold(0.0)(summary.entries(_).count)
      assert(bits(summary.estimate(x)) == bits(want), s"estimate($x)")
      assert(summary.contains(x) == ref.contains(x), s"contains($x)")
    }
    queries.grouped(math.max(1, summary.size / 2)).foreach(g => assertSameAsScan(summary, g.toSet))
  }

  test("estimate and contains equal a reference Map over random Int- and String-keyed summaries") {
    val r = new java.util.SplittableRandom(17)
    (0 until 200).foreach { k =>
      val m = 1 + r.nextInt(120)
      val items = m + r.nextInt(500)
      val sk = UnbiasedSpaceSaving[Int](m, seed = 100 + k)
      (0 until r.nextInt(5000)).foreach { _ =>
        sk.update((items * math.pow(r.nextDouble(), 2)).toInt, 0.25 + 3 * r.nextDouble())
      }
      val ints = sk.summary
      val strs = SketchSummary(ints.entries.map(e => Entry("k" + e.item, e.count)), ints.minCount, ints.total, m)
      val queries = (-5 until items + 5).toVector
      assertIndexMatchesMap(ints, queries)
      assertIndexMatchesMap(strs, queries.map("k" + _))
    }
  }

  test("keys with a constant ## still find their own bins when every probe collides") {
    // Every key hashes alike, so all probes share one home slot and walk one
    // run; over sixteen hashes and several sizes some runs wrap past the end
    // of the table.
    (0 until 16).foreach { h =>
      Seq(1, 2, 3, 7, 8, 31, 64, 100).foreach { n =>
        val entries = (0 until n).map(i => Entry(Colliding(i, h), 1.0 + i)).toVector
        val summary = SketchSummary(entries, minCount = 1.0, total = entries.map(_.count).sum, m = n)
        assertIndexMatchesMap(summary, (-2 until n + 2).map(Colliding(_, h)))
        assert(summary.estimate(Colliding(n - 1, h)) == n.toDouble)
        assert(!summary.contains(Colliding(n, h)))
      }
    }
  }

  test("a null item labels its own bin") {
    val withNull = SketchSummary(Vector(Entry("a", 2.0), Entry(null: String, 3.0), Entry("b", 1.0)),
      minCount = 1.0, total = 6.0, m = 3)
    assert(withNull.contains(null) && withNull.estimate(null) == 3.0)
    assert(withNull.subsetSumOf(Set[String](null)) == Estimate(3.0, 1.0))
    assertIndexMatchesMap(withNull, Seq(null, "a", "b", "c"))
    val noNull = SketchSummary(Vector(Entry("a", 2.0), Entry("b", 1.0)), minCount = 1.0, total = 3.0, m = 2)
    assert(!noNull.contains(null) && noNull.estimate(null) == 0.0)
    assertIndexMatchesMap(noNull, Seq(null, "a", "b", "c"))
  }

  test("1, 1L, 1.0 and BigInt(1) find each other's bin, as in a Scala Map") {
    val one: Seq[Any] = Seq(1, 1L, 1.0, 1.0f, BigInt(1), 1.toShort, 1.toByte, '\u0001')
    one.foreach { label =>
      val summary = SketchSummary[Any](Vector(Entry("x", 2.0), Entry(label, 5.0), Entry(2L, 1.0)),
        minCount = 1.0, total = 8.0, m = 3)
      one.foreach { q =>
        assert(summary.contains(q) && summary.estimate(q) == 5.0, s"$q against a bin labelled $label")
      }
      assert(summary.estimate(2) == 1.0 && summary.estimate(BigInt(2)) == 1.0 && !summary.contains(3))
      assertIndexMatchesMap(summary, one ++ Seq[Any]("x", 2, 2.0, BigInt(2), 3, "1"))
    }
  }

  test("the empty summary holds no item") {
    val empty = SketchSummary(Vector.empty[Entry[String]], minCount = 0.0, total = 0.0, m = 8)
    Seq("a", "", null).foreach { x =>
      assert(!empty.contains(x) && empty.estimate(x) == 0.0)
    }
    assert(empty.subsetSumOf(Set("a", "b")) == Estimate(0.0, 0.0))
    assert(empty.subsetSumOf(Set.empty[String]) == Estimate(0.0, 0.0))
    assertIndexMatchesMap(empty, Seq("a", "", null))
  }

  test("a Java-serialized summary and HT sample answer with the original bits") {
    val sk = UnbiasedSpaceSaving[Int](64, seed = 23)
    val r = new java.util.SplittableRandom(24)
    (0 until 5000).foreach(_ => sk.update((400 * math.pow(r.nextDouble(), 3)).toInt, 0.5 + r.nextDouble()))
    val summary = sk.summary
    val sample = repro.sampling.PrioritySampling.sample((0 until 300).map(i => i -> (1.0 + i % 11)), m = 40, seed = 25)
    val queries = (-3 until 403).toVector
    val sets = Seq(Set(1, 2, 3), (0 until 400 by 9).toSet, (0 until 30).toSet, queries.toSet)
    // Query first, so the summary has built its transient index before it is
    // written: the copy must build its own.
    assert(summary.contains(summary.entries.head.item))
    val before = sets.map(s => bits(summary.subsetSumOf(s)))
    val summaryCopy = roundTrip(summary)
    val sampleCopy = roundTrip(sample)
    assert(summaryCopy == summary && sampleCopy == sample)
    queries.foreach { x =>
      assert(bits(summaryCopy.estimate(x)) == bits(summary.estimate(x)), s"estimate($x)")
      assert(summaryCopy.contains(x) == summary.contains(x), s"contains($x)")
    }
    assert(sets.map(s => bits(summaryCopy.subsetSumOf(s))) == before)
    sets.foreach(s => assert(bits(sampleCopy.subsetSumOf(s)) == bits(sample.subsetSumOf(s))))
  }
}

object SketchSummarySpec {
  /** A key whose hash is `h` whatever its value `v`. */
  final case class Colliding(v: Int, h: Int) {
    override def hashCode: Int = h
  }
}

class VarianceEstimatorSpec extends AnyFunSuite {

  /** Build many independent sketches over the same skewed stream and check
    * eq.-5 behaviour end to end.
    */
  private def replicate(reps: Int, m: Int, counts: Seq[Long], subset: Set[Int], seedBase: Long) = {
    (0 until reps).map { r =>
      val s = UnbiasedSpaceSaving[Int](m, seedBase + 2 * r)
      s.updateAll(shuffledStream(counts, seedBase + 2 * r + 1))
      s.summary.subsetSumOf(subset)
    }
  }

  // Skewed counts: a few hundred tail items plus some heavies.
  private val counts: Seq[Long] =
    (1 to 300).map(_ => 2L) ++ (1 to 30).map(_ => 20L) ++ Seq(200L, 300L)
  private val truthAll = counts.map(_.toDouble)

  test("eq.5 variance is upward biased on i.i.d. streams (paper §6.4)") {
    val subset = (0 until 300 by 3).toSet // 100 tail items
    val truth = subset.toSeq.map(truthAll(_)).sum
    val est = replicate(600, 40, counts, subset, 11000)
    val trueVar = variance(est.map(_.value))
    val meanEstVar = mean(est.map(_.variance))
    assert(meanEstVar >= 0.7 * trueVar,
      s"estimated variance $meanEstVar should not be far below true variance $trueVar")
    assertUnbiased(est.map(_.value), truth, z = 4.5, label = "subset value")
  }

  test("95% normal intervals cover at close to or above the advertised rate (paper §6.5)") {
    val subset = (0 until 330).toSet // all tail + mid items: large subset, CLT applies
    val truth = subset.toSeq.map(truthAll(_)).sum
    val est = replicate(600, 40, counts, subset, 17000)
    val coverage = est.count(_.covers(truth)).toDouble / est.size
    assert(coverage >= 0.88, s"coverage $coverage below advertised 95% minus tolerance")
  }

  test("variance estimate shrinks as bins grow") {
    val subset = (0 until 300 by 3).toSet
    val small = replicate(50, 40, counts, subset, 23000)
    val big = replicate(50, 200, counts, subset, 29000)
    assert(mean(big.map(_.variance)) < mean(small.map(_.variance)),
      "more bins must reduce the estimated variance")
  }
}
