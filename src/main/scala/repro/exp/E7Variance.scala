package repro.exp

import repro.core.{DeterministicSpaceSaving, UnbiasedSpaceSaving}
import repro.data.Streams
import repro.sampling.Pps

/** Tables T7 and T8 (paper figures 8, 9 and 10): the USS-pathological
  * *sorted* stream — rows arranged in ascending item-frequency order — cut
  * into 10 epochs of equal item counts; the query is the total count of each
  * epoch's items.
  *
  * T7 (figs. 8–9): per epoch — true count, mean USS estimate, true sd across
  * reps, mean eq.-5 estimated sd, the Poisson-PPS reference sd, expected
  * number of sampled epoch items, and 95 % normal-CI coverage. Paper claims:
  * the eq.-5 sd is accurate-to-upward-biased, close to the PPS sd, and
  * coverage is at or above the advertised level except in epochs with too few
  * sampled items for the CLT.
  *
  * T8 (fig. 10): per epoch — RRMSE of USS vs Deterministic Space Saving.
  * Paper claims: DSS estimates 0 for the first 9 epochs and n_tot for the
  * last, giving ~50x USS's error on the top epochs, while USS stays accurate
  * except for extremely small counts.
  */
object E7Variance {

  final case class EpochRow(epoch: Int, truth: Double, meanEst: Double, trueSd: Double,
                            estSd: Double, ppsSd: Double, meanItems: Double, coverage: Double)

  final case class EpochErrRow(epoch: Int, truthFrac: Double, ussRrmse: Double, dssRrmse: Double)

  final case class Report(varianceRows: Vector[EpochRow], errorRows: Vector[EpochErrRow],
                          varianceTable: String, errorTable: String)

  def run(nItems: Int = 2000, targetTotal: Long = 400_000L,
          m: Int = 200, reps: Int = 300, seed: Long = 83): Report = {
    val counts = Exp.scaledWeibullCounts(nItems, Exp.Shape, targetTotal)
    val total = counts.sum.toDouble
    val eps = Streams.epochs(nItems, 10)
    val truths = eps.map(rg => rg.iterator.map(counts(_).toDouble).sum)
    val aggregated = counts.indices.map(i => i -> counts(i).toDouble)

    // Ascending order ignores the seed, and the sketches only read the stream.
    val stream = Streams.expand(counts, Streams.Order.SortedAscending, seed)
    val perRep = Exp.parReps(reps) { r =>
      val uss = UnbiasedSpaceSaving[Int](m, seed * 191 + r)
      val dss = DeterministicSpaceSaving[Int](m, seed * 193 + r)
      uss.updateAll(stream)
      dss.updateAll(stream)
      val us = uss.summary
      val ds = dss.summary
      eps.map { rg =>
        val set = rg.toSet
        val e = us.subsetSumOf(set)
        val nIn = rg.count(us.contains)
        (e, nIn, ds.subsetSumOf(set).value)
      }
    }

    val varianceRows = eps.indices.map { k =>
      val ests = perRep.map(_(k)._1.value)
      val sds = perRep.map(_(k)._1.stddev)
      val items = perRep.map(_(k)._2.toDouble)
      val cover = perRep.count(_(k)._1.covers(truths(k))).toDouble / reps
      val ppsSd = math.sqrt(Pps.poissonVariance(aggregated, m)(eps(k).toSet.contains))
      EpochRow(k + 1, truths(k), Exp.mean(ests), Exp.stddev(ests), Exp.mean(sds), ppsSd,
               Exp.mean(items), cover)
    }.toVector

    val errorRows = eps.indices.map { k =>
      EpochErrRow(k + 1, truths(k) / total,
        Exp.rrmse(perRep.map(_(k)._1.value), truths(k)),
        Exp.rrmse(perRep.map(_(k)._3), truths(k)))
    }.toVector

    val t7 = Tab.render(
      s"T7 / figs.8-9 — eq.5 variance & 95% CI coverage on sorted stream (nItems=$nItems m=$m total=${counts.sum} $reps reps)",
      Seq("epoch", "truth", "mean est", "true sd", "est sd (eq.5)", "PPS sd", "E[#items]", "coverage"),
      varianceRows.map(r => Seq(r.epoch, r.truth, r.meanEst, r.trueSd, r.estSd, r.ppsSd, r.meanItems, r.coverage)))
    val t8 = Tab.render(
      s"T8 / fig.10 — USS vs DSS per-epoch RRMSE on sorted stream",
      Seq("epoch", "truth/total", "USS RRMSE", "DSS RRMSE"),
      errorRows.map(r => Seq(r.epoch, r.truthFrac, r.ussRrmse, r.dssRrmse)))
    Report(varianceRows, errorRows, t7, t8)
  }
}
