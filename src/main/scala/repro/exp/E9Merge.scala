package repro.exp

import repro.core._
import repro.data.Streams

/** Table T9 (paper §5.5, no figure): distributed sketching via merges. The
  * stream is split into P shards (as a map-reduce ingest would); each shard
  * builds its own sketch; partials are combined with each of the three merge
  * operations and compared against a single-pass USS sketch:
  *
  *  - pairwise PPS-collapse merge (unbiased, preserves total exactly),
  *  - priority-sampling merge (unbiased, total preserved in expectation),
  *  - Misra-Gries soft-threshold merge of DSS shards (deterministic, biased).
  *
  * Metrics: exactness of the preserved total, subset-sum RRMSE, and relative
  * bias on "tail" subsets (items outside the top m by true count) where the
  * figure-1 discussion predicts the biased merge loses the tail mass.
  */
object E9Merge {

  final case class MethodRow(method: String, totalRelErr: Double, rrmse: Double,
                             tailRelBias: Double)

  final case class Report(rows: Vector[MethodRow], table: String) {
    def apply(method: String): MethodRow = rows.find(_.method == method).get
  }

  def run(nItems: Int = 2000, targetTotal: Long = 300_000L,
          m: Int = 200, shards: Int = 16, subsetSize: Int = 100, nSubsets: Int = 20,
          reps: Int = 100, seed: Long = 97): Report = {
    val counts = Exp.scaledWeibullCounts(nItems, Exp.Shape, targetTotal)
    val total = counts.sum.toDouble
    val subsets = Streams.randomSubsets(nItems, subsetSize, nSubsets, seed)
    val truths = subsets.map(Exp.subsetTruth(counts, _))
    // Tail subset: all items below the top-m true counts.
    val topM = counts.indices.sortBy(i => -counts(i)).take(m).toSet
    val tail = counts.indices.filterNot(topM).toSet
    val tailTruth = tail.iterator.map(counts(_).toDouble).sum

    val perRep = Exp.parReps(reps) { r =>
      val stream = Streams.expand(counts, Streams.Order.Permuted, seed * 211 + r)
      val chunk = (stream.length + shards - 1) / shards
      val ussShards = Array.tabulate(shards)(s => UnbiasedSpaceSaving[Int](m, seed * 223 + r * 64 + s))
      val dssShards = Array.tabulate(shards)(s => DeterministicSpaceSaving[Int](m, seed * 227 + r * 64 + s))
      val single = UnbiasedSpaceSaving[Int](m, seed * 229 + r)
      var i = 0
      while (i < stream.length) {
        val s = i / chunk
        ussShards(s).update(stream(i))
        dssShards(s).update(stream(i))
        single.update(stream(i))
        i += 1
      }
      val sums = ussShards.map(_.summary).toSeq
      val pair = Merge.pairwiseUnbiased(m, seed * 233 + r, sums).summary
      val prio = Merge.prioritySampled(m, seed * 239 + r, sums).summary
      val mg = Merge.misraGries(m, dssShards.map(_.summary).toSeq)
      val sing = single.summary
      def eval(s: SketchSummary[Int]) =
        (s.entries.iterator.map(_.count).sum,
         subsets.map(sub => s.subsetSumOf(sub).value),
         s.subsetSumOf(tail).value)
      Map("pairwise" -> eval(pair), "priority" -> eval(prio), "misra-gries" -> eval(mg),
          "single-pass" -> eval(sing))
    }

    val rows = Vector("single-pass", "pairwise", "priority", "misra-gries").map { method =>
      val runs = perRep.map(_(method))
      val totalRelErr = Exp.mean(runs.map(t => math.abs(t._1 - total) / total))
      val rrmse = Exp.mean(subsets.indices.map(j => Exp.rrmse(runs.map(_._2(j)), truths(j))))
      val tailBias = Exp.mean(runs.map(_._3)) / tailTruth - 1
      MethodRow(method, totalRelErr, rrmse, tailBias)
    }

    val table = Tab.render(
      s"T9 / §5.5 — distributed sketching: $shards shards merged to m=$m (shape=${Exp.Shape}, $reps reps; tail = items outside top-$m, ${(tailTruth / total * 100).round}% of mass)",
      Seq("method", "|total-err|/total", "subset RRMSE", "tail rel.bias"),
      rows.map(r => Seq(r.method, r.totalRelErr, r.rrmse, r.tailRelBias)))
    Report(rows, table)
  }
}
