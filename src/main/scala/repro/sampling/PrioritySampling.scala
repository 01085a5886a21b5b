package repro.sampling

import repro.core.{Merge, Rng}

/** Priority sampling (Duffield, Lund & Thorup 2007) over **pre-aggregated**
  * (item, weight) data — the paper's state-of-the-art comparator for subset
  * sum estimation (figures 5 and 6). Each item gets priority R_i = U_i / w_i;
  * the m smallest priorities form the sample; with τ the (m+1)-th smallest
  * priority, the adjusted weight `max(w_i, 1/τ)` makes any subset-sum
  * estimate unbiased. Unlike Space Saving, the estimated total is not exactly
  * the true total (§7 notes this as a possible reason USS can win).
  */
object PrioritySampling {

  /** Draw a priority sample of up to `m` items from pre-aggregated
    * (item, weight) pairs with `Merge.priorityReduction`. Weights must be
    * positive and finite. With at most `m` items the sample is exhaustive:
    * τ = 0 and every adjusted weight is the exact weight.
    */
  def sample[T](items: Seq[(T, Double)], m: Int, seed: Long): HtSample[T] = {
    val (kept, tau) = Merge.priorityReduction(items, m, Rng(seed))
    HtSample(kept, tau)
  }
}
