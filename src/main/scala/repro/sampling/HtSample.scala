package repro.sampling

import repro.core.{Estimate, HtEntry}

/** A finished Horvitz-Thompson sample: bottom-k's (`BottomK.result`, ŵ = w/τ)
  * and priority sampling's (`PrioritySampling.sample`, ŵ = max(w, 1/τ)).
  * Each entry keeps its exact weight w and adjusted weight ŵ ≥ w; `tau` is the
  * sampler's threshold.
  */
final case class HtSample[T](entries: Vector[HtEntry[T]], tau: Double) {

  /** Unbiased subset-sum estimate Σ ŵ_i with the variance estimate
    * V̂ = Σ ŵ_i·(ŵ_i − w_i) over the sampled items of S. For priority sampling
    * it is zero for certainty items (ŵ = w); for bottom-k, where ŵ = w/τ, it
    * is Σ (w_i/τ)²·(1−τ), zero when the sample is exhaustive (τ = 1).
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
    Estimate(sum, varAcc)
  }

  def subsetSumOf(items: Set[T]): Estimate = subsetSum(items.contains)
}
