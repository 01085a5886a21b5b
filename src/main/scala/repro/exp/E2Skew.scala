package repro.exp

import repro.core.UnbiasedSpaceSaving
import repro.data.Streams

/** Table T2 (paper figure 3): Unbiased Space Saving accuracy as a function of
  * data skew (Weibull shape — smaller is more skewed) and of subset size.
  * For each shape, random 100-item subsets are bucketed into terciles by
  * their true sum; each row reports the RRMSE of the subset-sum estimate.
  * Paper claim: "accuracy improves when the skew is higher and when more and
  * larger bins are contained in the subset" (m = 200).
  */
object E2Skew {

  final case class SkewRow(shape: Double, sizeBucket: String, meanTruthFrac: Double, rrmse: Double)

  final case class Report(rows: Vector[SkewRow], table: String) {
    /** RRMSE of tercile bucket `b` (0 = smallest subsets) for a shape. */
    def rrmseOf(shape: Double, b: Int): Double =
      rows.find(r => r.shape == shape && r.sizeBucket.startsWith(s"T$b")).get.rrmse
  }

  def run(nItems: Int = 2000, shapes: Seq[Double] = Seq(0.25, 0.5, 1.0),
          targetTotal: Long = 300_000L, m: Int = 200, subsetSize: Int = 100,
          nSubsets: Int = 30, reps: Int = 100, seed: Long = 23): Report = {

    val rows = shapes.flatMap { shape =>
      val counts = Exp.scaledWeibullCounts(nItems, shape, targetTotal)
      val total = counts.sum.toDouble
      val subsets = Streams.randomSubsets(nItems, subsetSize, nSubsets, seed + (shape * 1000).toLong)
      val truths = subsets.map(Exp.subsetTruth(counts, _))

      // estimates(rep)(subset)
      val estimates = Exp.parReps(reps) { r =>
        val stream = Streams.expand(counts, Streams.Order.Permuted, seed * 31 + r)
        val sk = UnbiasedSpaceSaving[Int](m, seed * 37 + 1000 * (shape * 100).toLong + r)
        sk.updateAll(stream)
        val s = sk.summary
        subsets.map(sub => s.subsetSumOf(sub).value)
      }

      val perSubsetRrmse = subsets.indices.map { j =>
        (truths(j), Exp.rrmse(estimates.map(_(j)), truths(j)))
      }
      Exp.terciles(perSubsetRrmse)(_._1).zipWithIndex.map { case (slice, b) =>
        SkewRow(shape, s"T$b", Exp.mean(slice.map(_._1 / total)), Exp.mean(slice.map(_._2)))
      }
    }.toVector

    val table = Tab.render(
      s"T2 / fig.3 — RRMSE vs skew and subset size (nItems=$nItems total~$targetTotal m=$m ${nSubsets}x$subsetSize-item subsets, $reps reps)",
      Seq("Weibull shape", "subset-size tercile", "mean truth/total", "RRMSE"),
      rows.map(r => Seq(r.shape, r.sizeBucket, r.meanTruthFrac, r.rrmse)))
    Report(rows, table)
  }
}
