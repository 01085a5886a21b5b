package repro.exp

import repro.data.Streams
import repro.sampling.PrioritySampling

/** Table T4 (paper figure 5): Unbiased Space Saving on the raw disaggregated
  * stream vs priority sampling on the expensive pre-aggregated per-item
  * counts, both with m bins/samples. Paper claim: "Unbiased Space Saving
  * performs slightly better than priority sampling on the synthetic data
  * despite priority sampling using pre-aggregated data".
  */
object E4Priority {

  final case class CompareRow(sizeBucket: String, meanTruthFrac: Double,
                              ussRrmse: Double, priorityRrmse: Double) {
    def ratio: Double = ussRrmse / priorityRrmse
  }

  final case class Report(rows: Vector[CompareRow], overallRatio: Double, table: String)

  def run(nItems: Int = 2000, targetTotal: Long = 300_000L,
          m: Int = 200, subsetSize: Int = 100, nSubsets: Int = 30, reps: Int = 200,
          seed: Long = 59): Report = {
    val counts = Exp.scaledWeibullCounts(nItems, Exp.Shape, targetTotal)
    val aggregated = counts.indices.map(i => i -> counts(i).toDouble)
    val subsets = Streams.randomSubsets(nItems, subsetSize, nSubsets, seed)
    val (terciles, uss, priority) = Exp.ussVersus(counts, m, subsets, reps, (seed * 149, seed * 151)) { (_, r) =>
      PrioritySampling.sample(aggregated, m, seed * 157 + r)
    }
    val rows = terciles.zipWithIndex.map { case ((frac, u, p), i) => CompareRow(s"T$i", frac, u, p) }
    val table = Tab.render(
      s"T4 / fig.5 — USS (disaggregated) vs priority sampling (pre-aggregated) (shape=${Exp.Shape} m=$m, $reps reps)",
      Seq("subset-size tercile", "mean truth/total", "USS RRMSE", "priority RRMSE", "USS/priority"),
      rows.map(r => Seq(r.sizeBucket, r.meanTruthFrac, r.ussRrmse, r.priorityRrmse, r.ratio)))
    Report(rows, uss / priority, table)
  }
}
