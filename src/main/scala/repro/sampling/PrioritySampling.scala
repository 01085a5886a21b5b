package repro.sampling

import repro.core.{Estimate, Merge, PriorityEntry, Rng}

/** Priority sampling (Duffield, Lund & Thorup 2007) over **pre-aggregated**
  * (item, weight) data — the paper's state-of-the-art comparator for subset
  * sum estimation (figures 5 and 6). Each item gets priority R_i = U_i / w_i;
  * the m smallest priorities form the sample; with τ the (m+1)-th smallest
  * priority, the adjusted weight `max(w_i, 1/τ)` makes any subset-sum
  * estimate unbiased. Unlike Space Saving, the estimated total is not exactly
  * the true total (§7 notes this as a possible reason USS can win).
  */
final case class PrioritySample[T](entries: Vector[PriorityEntry[T]], threshold: Double) {

  private lazy val index: Map[T, PriorityEntry[T]] =
    entries.iterator.map(e => e.item -> e).toMap

  /** HT-adjusted weight of a sampled item, 0 if not sampled. */
  def adjustedWeight(item: T): Double = index.get(item).map(_.adjusted).getOrElse(0.0)

  def contains(item: T): Boolean = index.contains(item)

  /** Unbiased subset-sum estimate with the standard priority-sampling
    * variance estimator V̂ = Σ_{i∈S∩sample} ŵ_i·(ŵ_i − w_i), which is zero
    * for above-threshold (certainty) items.
    */
  def subsetSum(pred: T => Boolean): Estimate = {
    var sum = 0.0
    var varAcc = 0.0
    entries.foreach { e =>
      if (pred(e.item)) {
        sum += e.adjusted
        varAcc += e.adjusted * (e.adjusted - e.weight)
      }
    }
    Estimate(sum, math.max(0.0, varAcc))
  }

  def subsetSumOf(items: Set[T]): Estimate = subsetSum(items.contains)

  /** Estimated total Σ ŵ_i — unbiased for the true total but not exact. */
  def estimatedTotal: Double = entries.iterator.map(_.adjusted).sum
}

object PrioritySampling {

  /** Draw a priority sample of up to `m` items from pre-aggregated
    * (item, weight) pairs with `Merge.priorityReduction`. Weights must be
    * positive and finite. With at most `m` items the sample is exhaustive:
    * τ = 0 and every adjusted weight is the exact weight.
    */
  def sample[T](items: Seq[(T, Double)], m: Int, seed: Long): PrioritySample[T] = {
    val (kept, tau) = Merge.priorityReduction(items, m, Rng(seed))
    PrioritySample(kept, tau)
  }
}
