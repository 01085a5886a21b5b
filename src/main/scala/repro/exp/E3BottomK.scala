package repro.exp

import repro.data.Streams
import repro.sampling.BottomK

/** Table T3 (paper figure 4): Unbiased Space Saving vs uniform item sampling
  * (bottom-k) on a skewed disaggregated stream, m = k = 100. Both sketches
  * consume the same raw stream; RRMSE of subset-sum estimates is reported by
  * true-subset-count bucket. Paper claim: USS "performs orders of magnitude
  * better than uniform sampling of items" on skewed data.
  */
object E3BottomK {

  final case class CompareRow(sizeBucket: String, meanTruthFrac: Double,
                              ussRrmse: Double, bottomKRrmse: Double) {
    def ratio: Double = bottomKRrmse / ussRrmse
  }

  final case class Report(rows: Vector[CompareRow], overallRatio: Double, table: String)

  def run(nItems: Int = 2000, targetTotal: Long = 300_000L,
          m: Int = 100, subsetSize: Int = 100, nSubsets: Int = 30, reps: Int = 100,
          seed: Long = 41): Report = {
    val counts = Exp.scaledWeibullCounts(nItems, Exp.Shape, targetTotal)
    val subsets = Streams.randomSubsets(nItems, subsetSize, nSubsets, seed)
    val (terciles, uss, bottomK) = Exp.ussVersus(counts, m, subsets, reps, (seed * 131, seed * 137)) { (stream, r) =>
      val bk = BottomK[Int](m, seed * 139 + r)
      stream.foreach(bk.update(_))
      bk.result
    }
    val rows = terciles.zipWithIndex.map { case ((frac, u, b), i) => CompareRow(s"T$i", frac, u, b) }
    val table = Tab.render(
      s"T3 / fig.4 — USS vs bottom-k uniform item sampling (shape=${Exp.Shape} m=k=$m, $reps reps)",
      Seq("subset-size tercile", "mean truth/total", "USS RRMSE", "bottom-k RRMSE", "ratio"),
      rows.map(r => Seq(r.sizeBucket, r.meanTruthFrac, r.ussRrmse, r.bottomKRrmse, r.ratio)))
    Report(rows, bottomK / uss, table)
  }
}
