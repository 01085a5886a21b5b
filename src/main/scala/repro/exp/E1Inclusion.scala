package repro.exp

import repro.core.UnbiasedSpaceSaving
import repro.data.Streams
import repro.sampling.Pps

/** Table T1 (paper figure 2): empirical inclusion probabilities of Unbiased
  * Space Saving on an i.i.d. (randomly permuted) discretized-Weibull stream
  * match the theoretical thresholded-PPS probabilities π_i = min(1, α·n_i)
  * (Theorem 9). Items are bucketed by theoretical π; each row reports the
  * bucket's mean theoretical vs empirical inclusion probability.
  */
object E1Inclusion {

  final case class BucketRow(bucket: String, items: Int, meanCount: Double,
                             theoreticalPi: Double, empiricalPi: Double) {
    def absDiff: Double = math.abs(theoreticalPi - empiricalPi)
  }

  final case class Report(rows: Vector[BucketRow], maxAbsDiff: Double, table: String)

  /** Weibull shape of the item counts: heavy-tailed, so the π buckets span (0, 1]. */
  private val Shape = 0.15

  def run(nItems: Int = 500, targetTotal: Long = 400_000L,
          m: Int = 100, reps: Int = 200, seed: Long = 11): Report = {
    val counts = Exp.scaledWeibullCounts(nItems, Shape, targetTotal)
    val pis = Pps.inclusionProbabilities(counts.map(_.toDouble).toSeq, m)

    val inclusion = new Array[Long](nItems)
    val perRep = Exp.parReps(reps) { r =>
      val stream = Streams.expand(counts, Streams.Order.Permuted, seed * 7919 + r)
      val sk = UnbiasedSpaceSaving[Int](m, seed * 104729 + r)
      sk.updateAll(stream)
      (0 until nItems).map(it => if (sk.contains(it)) 1L else 0L).toArray
    }
    perRep.foreach { arr => var i = 0; while (i < nItems) { inclusion(i) += arr(i); i += 1 } }

    val empirical = inclusion.map(_.toDouble / reps)
    val edges = Vector(0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9999, 1.0001)
    val rows = edges.zip(edges.tail).flatMap { case (lo, hi) =>
      val ids = (0 until nItems).filter(i => pis(i) > lo && pis(i) <= hi)
      if (ids.isEmpty) None
      else Some(BucketRow(
        bucket = f"($lo%.4f,${math.min(hi, 1.0)}%.4f]",
        items = ids.size,
        meanCount = Exp.mean(ids.map(counts(_).toDouble)),
        theoreticalPi = Exp.mean(ids.map(pis(_))),
        empiricalPi = Exp.mean(ids.map(empirical(_)))))
    }
    val table = Tab.render(
      s"T1 / fig.2 — inclusion probabilities (nItems=$nItems shape=$Shape total=${counts.sum} m=$m reps=$reps)",
      Seq("pi bucket", "items", "mean n_i", "theoretical pi", "empirical pi"),
      rows.map(r => Seq(r.bucket, r.items, r.meanCount, r.theoreticalPi, r.empiricalPi)))
    Report(rows, rows.map(_.absDiff).max, table)
  }
}
