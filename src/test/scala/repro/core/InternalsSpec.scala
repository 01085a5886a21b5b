package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import scala.util.Random

/** Internal-consistency checks for the bin store / min-heap. */
class HeapInvariantSpec extends AnyFunSuite {

  test("minCount always equals the smallest entry count once full") {
    val rng = new Random(1)
    val s = UnbiasedSpaceSaving[Int](17, seed = 1)
    (1 to 5000).foreach { k =>
      s.update(rng.nextInt(400), 1.0 + rng.nextInt(3))
      if (s.size == 17 && k % 97 == 0) {
        assert(s.minCount == s.entriesVector.map(_.count).min)
      }
    }
  }

  test("minCount is zero until the sketch fills") {
    val s = UnbiasedSpaceSaving[Int](10, seed = 2)
    (0 until 9).foreach { i => s.update(i); assert(s.minCount == 0.0) }
    s.update(9)
    assert(s.minCount > 0.0)
  }

  test("estimates stay in sync with entries under heavy churn") {
    val rng = new Random(3)
    val s = DeterministicSpaceSaving[Int](23, seed = 3)
    (1 to 20000).foreach(_ => s.update(rng.nextInt(5000)))
    val es = s.entriesVector
    es.foreach(e => assert(s.estimate(e.item) == e.count))
    assert(es.size == 23)
    // Anything not in entries estimates to zero.
    val labels = es.map(_.item).toSet
    (0 until 5000).filterNot(labels).take(50).foreach(i => assert(s.estimate(i) == 0.0))
  }

  test("weighted churn keeps the heap consistent") {
    val rng = new Random(4)
    val s = UnbiasedSpaceSaving[Int](11, seed = 4)
    (1 to 8000).foreach(_ => s.update(rng.nextInt(900), rng.nextDouble() * 5 + 0.01))
    assert(s.minCount == s.entriesVector.map(_.count).min)
    assert(math.abs(s.entriesVector.map(_.count).sum - s.totalWeight) < 1e-6)
  }
}

class RngSpec extends AnyFunSuite {

  test("scramble is deterministic and spreads sequential seeds") {
    assert(Rng.scramble(42L) == Rng.scramble(42L))
    val outs = (0L until 1000L).map(Rng.scramble)
    assert(outs.distinct.size == 1000)
  }

  test("first draws across sequential seeds look uniform") {
    val n = 20000
    val draws = (0 until n).map(i => Rng(i.toLong).nextDouble())
    val mean = draws.sum / n
    assert(math.abs(mean - 0.5) < 0.02, s"mean $mean")
    // No gross serial correlation between neighbouring seeds.
    val corrNum = (0 until n - 1).map(i => (draws(i) - mean) * (draws(i + 1) - mean)).sum
    val varSum = draws.map(d => (d - mean) * (d - mean)).sum
    assert(math.abs(corrNum / varSum) < 0.05)
  }

  test("Rng draws match java.util.Random bit for bit on interleaved nextLong/nextDouble/nextInt") {
    val bounds = Array(1, 2, 3, 7, 4, 64, 1 << 16, 1 << 30, (1 << 30) + 1, Int.MaxValue)
    def mismatch(seed: Long, draws: Int): Option[String] = {
      val ref = new java.util.Random(Rng.scramble(seed))
      val rng = Rng(seed)
      val pick = new java.util.SplittableRandom(seed ^ 0x5eedL)
      (0 until draws).iterator.map { k =>
        pick.nextInt(3) match {
          case 0 =>
            val (a, b) = (rng.nextLong(), ref.nextLong())
            if (a != b) Some(s"seed $seed draw $k nextLong $a != $b") else None
          case 1 =>
            val (a, b) = (rng.nextDouble(), ref.nextDouble())
            if (java.lang.Double.doubleToRawLongBits(a) != java.lang.Double.doubleToRawLongBits(b))
              Some(s"seed $seed draw $k nextDouble $a != $b")
            else None
          case _ =>
            val bound = bounds(pick.nextInt(bounds.length))
            val (a, b) = (rng.nextInt(bound), ref.nextInt(bound))
            if (a != b) Some(s"seed $seed draw $k nextInt($bound) $a != $b") else None
        }
      }.collectFirst { case Some(msg) => msg }
    }
    Seq(0L, -1L, Long.MinValue, Long.MaxValue, 42L).foreach { seed =>
      val miss = mismatch(seed, 1000000)
      assert(miss.isEmpty, miss.getOrElse(""))
    }
    (1L to 1000L).foreach { seed =>
      val miss = mismatch(seed, 1000)
      assert(miss.isEmpty, miss.getOrElse(""))
    }
    Seq(0, -1, Int.MinValue).foreach { bound =>
      val e = intercept[IllegalArgumentException](Rng(1).nextInt(bound))
      assert(e.getMessage.contains(s"got $bound"), e.getMessage)
    }
  }
}

/** A key whose hashCode is constant, so every label shares one probe run. */
final case class Collide(k: Int) {
  override def hashCode: Int = 7
}

/** The item index under label churn: after every update, `contains` and
  * `estimate` agree with `entriesVector`, and a label evicted by a replacement
  * is no longer found. Items match with Scala `==`, so the Long, Double and
  * BigInt boxes of a small int are that int's item.
  */
class LabelIndexSpec extends AnyFunSuite {

  private def churn(s: SpaceSavingBase[Any], updates: Int, seed: Long): Int = {
    val r = new java.util.SplittableRandom(seed)
    def key(): Any = r.nextInt(4) match {
      case 0 => Collide(r.nextInt(25))
      case 1 => if (r.nextInt(10) == 0) null else "s" + r.nextInt(25)
      case 2 => Integer.valueOf(r.nextInt(25))
      case _ =>
        val k = r.nextInt(25)
        r.nextInt(3) match { case 0 => k.toLong; case 1 => k.toDouble; case _ => BigInt(k) }
    }
    var replacements = 0
    var before = s.entriesVector
    (0 until updates).foreach { k =>
      val x = key()
      s.update(x, if (k % 3 == 0) 0.5 + r.nextDouble() else 1.0)
      val after = s.entriesVector
      val changed = before.indices.filterNot(b => before(b).item == after(b).item)
      assert(changed.size <= 1, s"update $k relabelled ${changed.size} bins")
      changed.foreach { b =>
        replacements += 1
        val evicted = before(b).item
        assert(after(b).item == x, s"update $k: bin $b relabelled to another item")
        assert(!s.contains(evicted) && s.estimate(evicted) == 0.0, s"update $k: evicted $evicted still found")
      }
      after.foreach { e =>
        assert(s.contains(e.item) && s.estimate(e.item) == e.count, s"update $k: ${e.item} out of sync")
      }
      assert(s.contains(x) == after.exists(_.item == x))
      before = after
    }
    replacements
  }

  test("colliding, null and String keys stay findable through DSS churn") {
    val n = churn(DeterministicSpaceSaving[Any](6, seed = 1), 100000, seed = 1)
    assert(n > 10000, s"only $n replacements")
  }

  test("colliding, null and String keys stay findable through USS churn") {
    // USS replaces with probability w / (N̂_min + w), so restart often to keep
    // N̂_min small and replacements frequent.
    val n = (0 until 100).map(k => churn(UnbiasedSpaceSaving[Any](5, seed = k), 1000, seed = k)).sum
    assert(n > 1000, s"only $n replacements")
  }

  test("a Java-serialized sketch rebuilds its index and keeps it through further churn") {
    val s = DeterministicSpaceSaving[Any](6, seed = 2)
    churn(s, 5000, seed = 2)
    val copy = TestUtil.roundTrip(s)
    assert(copy.entriesVector == s.entriesVector && copy.totalWeight == s.totalWeight)
    val n = churn(copy, 20000, seed = 3)
    assert(n > 2000, s"only $n replacements")
  }

  test("1, 1L, 1.0 and BigInt(1) are one item to the live sketch, its summary and its merge") {
    val s = UnbiasedSpaceSaving[Any](4, seed = 3)
    val one = Seq[Any](1, 1L, 1.0, BigInt(1))
    one.foreach(s.update(_))
    s.update(2)
    val summary = s.summary
    val merged = Merge.pairwiseUnbiased(4, seed = 4, Seq(summary))
    assert(s.size == 2 && merged.size == 2)
    one.foreach { q =>
      assert(s.estimate(q) == 4.0, s"estimate($q)")
      assert(summary.estimate(q) == 4.0, s"summary.estimate($q)")
      assert(summary.subsetSumOf(Set(q)).value == 4.0, s"subsetSumOf(Set($q))")
      assert(merged.estimate(q) == 4.0, s"merged estimate($q)")
    }
    val e = intercept[IllegalArgumentException](
      UnbiasedSpaceSaving.fromEntries[Any](4, seed = 5, Seq(Entry(1, 2.0), Entry(1L, 3.0)), total = 5.0))
    assert(e.getMessage.contains("duplicate item"), e.getMessage)
  }
}

class TabSpec extends AnyFunSuite {

  test("renders aligned header, separator and rows") {
    val out = repro.exp.Tab.render("demo", Seq("a", "bb"), Seq(Seq(1, 2.5), Seq(10, 0.25)))
    val lines = out.split("\n")
    assert(lines.head == "== demo ==")
    assert(lines(1).trim.startsWith("a"))
    assert(lines(2).forall(c => c == '-' || c == ' '))
    assert(lines.length == 5)
    assert(lines.drop(1).map(_.length).distinct.size == 1, "all rows equally wide")
  }

  test("formats integral doubles without decimals and others with four") {
    assert(repro.exp.Tab.fmt(3.0) == "3")
    assert(repro.exp.Tab.fmt(0.25) == "0.2500")
    assert(repro.exp.Tab.fmt("x") == "x")
    assert(repro.exp.Tab.fmt(7) == "7")
  }
}

/** Frequent-item identification quality across the three sketch families. */
class FrequentItemsSpec extends AnyFunSuite {

  private def zipfStream(n: Int, seed: Long): Array[Int] = {
    val rng = new Random(seed)
    Array.fill(n) {
      // crude zipf-ish: item k with probability ∝ 1/(k+1)
      val u = rng.nextDouble()
      math.min(999, (math.exp(u * math.log(1000.0)) - 1).toInt)
    }
  }

  test("all three sketches recover the true top-5 of a skewed stream") {
    val stream = zipfStream(40000, seed = 5)
    val truth = stream.groupBy(identity).view.mapValues(_.length).toMap
    val top5 = truth.toSeq.sortBy(-_._2).take(5).map(_._1).toSet

    val uss = UnbiasedSpaceSaving[Int](60, seed = 5)
    val dss = DeterministicSpaceSaving[Int](60, seed = 5)
    stream.foreach { x => uss.update(x); dss.update(x) }

    assert(uss.summary.topK(5).map(_.item).toSet == top5, "USS top-5")
    assert(dss.summary.topK(5).map(_.item).toSet == top5, "DSS top-5")
  }

  test("USS frequent-item counts are near-exact for the head of the distribution") {
    val stream = zipfStream(40000, seed = 6)
    val truth = stream.groupBy(identity).view.mapValues(_.length).toMap
    val uss = UnbiasedSpaceSaving[Int](100, seed = 6)
    stream.foreach(uss.update(_))
    truth.toSeq.sortBy(-_._2).take(5).foreach { case (item, n) =>
      val est = uss.estimate(item)
      assert(math.abs(est - n) / n < 0.1, s"item $item est=$est true=$n")
    }
  }

  test("frequentItems threshold agrees across USS and DSS on i.i.d. data") {
    val stream = zipfStream(40000, seed = 7)
    val uss = UnbiasedSpaceSaving[Int](80, seed = 7)
    val dss = DeterministicSpaceSaving[Int](80, seed = 7)
    stream.foreach { x => uss.update(x); dss.update(x) }
    val phi = 0.02
    val a = uss.summary.frequentItems(phi).map(_.item).toSet
    val b = dss.summary.frequentItems(phi).map(_.item).toSet
    assert((a & b).size >= (a.size * 8) / 10, s"USS=$a DSS=$b")
  }
}
