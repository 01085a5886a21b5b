package repro.exp

import repro.core.{DeterministicSpaceSaving, UnbiasedSpaceSaving}
import repro.data.Streams
import repro.sampling.Pps

/** Table T6 (paper figure 7): the natural pathological stream for
  * Deterministic Space Saving — two independent i.i.d. halves over disjoint
  * item ranges (e.g. data partitioned by hashed user id and processed
  * partition by partition). Items of the first half only appear in the first
  * half of the stream.
  *
  * Left panel → inclusion probabilities of *first-half* items (by count
  * decile) for USS vs DSS vs the theoretical PPS curve; right panel → RRMSE
  * of subset sums over random first-half subsets. Paper claims: USS still
  * behaves like a PPS sample while DSS "completely ignores infrequent items
  * in the first half", giving "large bias and error".
  */
object E6Pathological {

  final case class InclusionRow(decile: Int, meanCount: Double, theoreticalPi: Double,
                                ussPi: Double, dssPi: Double)

  /** Subset-sum error over first-half items; `scope` is "all" (subsets drawn
    * from every first-half item) or "tail" (subsets drawn from the infrequent
    * 90 % — the items the paper says DSS "completely ignores").
    */
  final case class ErrorRow(scope: String, meanTruthFrac: Double, ussRrmse: Double,
                            dssRrmse: Double, ussBias: Double, dssBias: Double)

  final case class Report(inclusion: Vector[InclusionRow], errors: Vector[ErrorRow], table: String) {
    def error(scope: String): ErrorRow = errors.find(_.scope == scope).get
  }

  def run(nItemsPerHalf: Int = 1000, targetTotalPerHalf: Long = 150_000L,
          m: Int = 100, subsetSize: Int = 100, nSubsets: Int = 20, reps: Int = 200,
          seed: Long = 67): Report = {
    // Both halves draw from the same count distribution; item ids
    // [0, nItemsPerHalf) occur only in the first half of the stream.
    val half = Exp.scaledWeibullCounts(nItemsPerHalf, Exp.Shape, targetTotalPerHalf)
    val counts = half ++ half
    val pis = Pps.inclusionProbabilities(counts.map(_.toDouble).toSeq, m)
    val firstHalf = 0 until nItemsPerHalf
    // "all" subsets range over every first-half item; "tail" subsets only over
    // the infrequent 90% (grid order is ascending, so the top decile is last).
    // Tail subsets are 3x larger so their true sums are big enough for RRMSE
    // to be meaningful (the tail items are individually tiny).
    val tailCut = nItemsPerHalf * 9 / 10
    val allSubsets = Streams.randomSubsets(nItemsPerHalf, subsetSize, nSubsets, seed)
    val tailSubsets = Streams.randomSubsets(tailCut, math.min(3 * subsetSize, tailCut), nSubsets, seed + 1)
    val subsets = allSubsets ++ tailSubsets
    val truths = subsets.map(Exp.subsetTruth(counts, _))

    val perRep = Exp.parReps(reps) { r =>
      val stream = Streams.expand(counts, Streams.Order.TwoHalves, seed * 173 + r)
      val uss = UnbiasedSpaceSaving[Int](m, seed * 179 + r)
      val dss = DeterministicSpaceSaving[Int](m, seed * 181 + r)
      uss.updateAll(stream)
      dss.updateAll(stream)
      val us = uss.summary
      val ds = dss.summary
      val inc = firstHalf.map(it => (if (us.contains(it)) 1 else 0, if (ds.contains(it)) 1 else 0)).toArray
      val ests = subsets.map(sub => (us.subsetSumOf(sub).value, ds.subsetSumOf(sub).value))
      (inc, ests)
    }

    val ussInc = new Array[Double](nItemsPerHalf)
    val dssInc = new Array[Double](nItemsPerHalf)
    perRep.foreach { case (inc, _) =>
      firstHalf.foreach { i => ussInc(i) += inc(i)._1; dssInc(i) += inc(i)._2 }
    }

    // Count-ordered deciles of first-half items (grid order is ascending).
    val dec = nItemsPerHalf / 10
    val inclusionRows = (0 until 10).map { d =>
      val ids = (d * dec) until (if (d == 9) nItemsPerHalf else (d + 1) * dec)
      InclusionRow(d + 1,
        Exp.mean(ids.map(counts(_).toDouble)),
        Exp.mean(ids.map(pis(_))),
        Exp.mean(ids.map(ussInc(_) / reps)),
        Exp.mean(ids.map(dssInc(_) / reps)))
    }.toVector

    val total = counts.sum.toDouble
    val errorRows = Vector(("all", 0 until nSubsets), ("tail", nSubsets until 2 * nSubsets)).map {
      case (scope, idx) =>
        val ussR = idx.map(j => Exp.rrmse(perRep.map(_._2(j)._1), truths(j)))
        val dssR = idx.map(j => Exp.rrmse(perRep.map(_._2(j)._2), truths(j)))
        val ussB = idx.map(j => Exp.mean(perRep.map(_._2(j)._1)) / truths(j) - 1)
        val dssB = idx.map(j => Exp.mean(perRep.map(_._2(j)._2)) / truths(j) - 1)
        ErrorRow(scope, Exp.mean(idx.map(j => truths(j) / total)),
                 Exp.mean(ussR), Exp.mean(dssR), Exp.mean(ussB), Exp.mean(dssB))
    }

    val t1 = Tab.render(
      s"T6a / fig.7-left — first-half inclusion probabilities (m=$m, $reps reps)",
      Seq("count decile", "mean n_i", "PPS pi", "USS pi", "DSS pi"),
      inclusionRows.map(r => Seq(r.decile, r.meanCount, r.theoreticalPi, r.ussPi, r.dssPi)))
    val t2 = Tab.render(
      s"T6b / fig.7-right — subset sums over first-half items ($nSubsets subsets per scope; all: $subsetSize items, tail: ${math.min(3 * subsetSize, tailCut)} items)",
      Seq("scope", "mean truth/total", "USS RRMSE", "DSS RRMSE", "USS rel.bias", "DSS rel.bias"),
      errorRows.map(r => Seq(r.scope, r.meanTruthFrac, r.ussRrmse, r.dssRrmse, r.ussBias, r.dssBias)))
    Report(inclusionRows, errorRows, t1 + "\n\n" + t2)
  }
}
