package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.checkProp

/** ScalaCheck invariants over arbitrary streams, sketch sizes and seeds. */
class PropertySpec extends AnyFunSuite {

  private val streamGen: Gen[(List[Int], Int, Long)] = for {
    n <- Gen.choose(0, 400)
    items <- Gen.listOfN(n, Gen.choose(0, 60))
    m <- Gen.choose(1, 20)
    seed <- Gen.choose(Long.MinValue, Long.MaxValue)
  } yield (items, m, seed)

  test("USS: total weight equals rows processed for every stream") {
    checkProp(Prop.forAll(streamGen) { case (items, m, seed) =>
      val s = UnbiasedSpaceSaving[Int](m, seed)
      items.foreach(s.update(_))
      s.totalWeight == items.size.toDouble &&
        math.abs(s.summary.entries.map(_.count).sum - items.size) < 1e-9
    })
  }

  test("USS: bin count bounded by min(m, distinct items)") {
    checkProp(Prop.forAll(streamGen) { case (items, m, seed) =>
      val s = UnbiasedSpaceSaving[Int](m, seed)
      items.foreach(s.update(_))
      s.size <= math.min(m, items.distinct.size)
    })
  }

  test("USS: counts are strictly positive and labels distinct") {
    checkProp(Prop.forAll(streamGen) { case (items, m, seed) =>
      val s = UnbiasedSpaceSaving[Int](m, seed)
      items.foreach(s.update(_))
      val es = s.summary.entries
      es.forall(_.count > 0) && es.map(_.item).distinct.size == es.size
    })
  }

  test("USS: minCount is a lower bound of every bin and ≤ t/m") {
    checkProp(Prop.forAll(streamGen) { case (items, m, seed) =>
      val s = UnbiasedSpaceSaving[Int](m, seed)
      items.foreach(s.update(_))
      val es = s.summary.entries
      es.forall(_.count >= s.minCount - 1e-9) &&
        (s.size < m || s.minCount <= items.size.toDouble / m + 1e-9)
    })
  }

  test("USS: exact when distinct items fit in the bins") {
    checkProp(Prop.forAll(streamGen) { case (items, m, seed) =>
      val distinct = items.distinct.size
      (distinct > m) || {
        val s = UnbiasedSpaceSaving[Int](m, seed)
        items.foreach(s.update(_))
        val truth = items.groupBy(identity).view.mapValues(_.size.toDouble).toMap
        truth.forall { case (i, n) => s.estimate(i) == n }
      }
    })
  }

  test("DSS: every in-sketch estimate dominates the true count") {
    checkProp(Prop.forAll(streamGen) { case (items, m, seed) =>
      val s = DeterministicSpaceSaving[Int](m, seed)
      items.foreach(s.update(_))
      val truth = items.groupBy(identity).view.mapValues(_.size.toDouble).toMap
      s.summary.entries.forall(e => e.count >= truth(e.item) - 1e-9)
    })
  }

  test("DSS: estimate error bounded by minCount") {
    checkProp(Prop.forAll(streamGen) { case (items, m, seed) =>
      val s = DeterministicSpaceSaving[Int](m, seed)
      items.foreach(s.update(_))
      val truth = items.groupBy(identity).view.mapValues(_.size.toDouble).toMap
      s.summary.entries.forall(e => e.count - truth(e.item) <= s.minCount + 1e-9)
    })
  }

  test("MG: conservative estimates with n_tot/m undercount for every stream") {
    // The Misra-Gries view of Deterministic Space Saving (§5.2).
    checkProp(Prop.forAll(streamGen) { case (items, m, seed) =>
      val s = DeterministicSpaceSaving[Int](m, seed)
      items.foreach(s.update(_))
      val mg = s.misraGriesSummary
      val truth = items.groupBy(identity).view.mapValues(_.size.toDouble).toMap
      mg.size <= m &&
        truth.forall { case (i, n) =>
          mg.estimate(i) <= n + 1e-9 && n - mg.estimate(i) <= items.size.toDouble / m + 1e-9
        }
    })
  }

  test("merges: capacity and totals for every pair of sketches") {
    val pairGen = for {
      a <- streamGen; b <- streamGen
    } yield (a, b)
    checkProp(Prop.forAll(pairGen) { case ((i1, m1, s1), (i2, _, s2)) =>
      val m = math.max(m1, 2)
      val a = UnbiasedSpaceSaving[Int](m, s1); i1.foreach(a.update(_))
      val b = UnbiasedSpaceSaving[Int](m, s2); i2.foreach(b.update(_))
      val merged = Merge.pairwiseUnbiased(m, s1 ^ s2, Seq(a.summary, b.summary))
      merged.size <= m &&
        math.abs(merged.totalWeight - (i1.size + i2.size)) < 1e-9 &&
        math.abs(merged.summary.entries.map(_.count).sum - (i1.size + i2.size)) < 1e-6
    }, minTests = 40)
  }
}
