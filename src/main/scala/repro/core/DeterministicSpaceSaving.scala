package repro.core

/** Baseline: the original Space Saving sketch of Metwally et al. (Algorithm 1
  * with p = 1) — an unseen item always takes over the minimum bin's label.
  *
  * Deterministic guarantees (§5.2): n_i ≤ N̂_i ≤ n_i + N̂_min, and the
  * Misra-Gries view `(N̂_i − N̂_min)₊` under-estimates by at most n_tot/m.
  * Counts are biased, which §6.3 and Theorem 11 show breaks subset-sum
  * estimation on non-i.i.d. streams.
  */
final class DeterministicSpaceSaving[T](m: Int, seed: Long) extends SpaceSavingBase[T](m, seed) {
  override protected def replaceProb(minCount: Double, w: Double): Double = 1.0

  /** The §5.2 isomorphism: the Misra-Gries view of the sketch, each Space
    * Saving count soft-thresholded by N̂_min (bins thresholded to 0 are
    * dropped, so their items, like unseen ones, estimate 0).
    */
  def misraGriesSummary: SketchSummary[T] =
    SketchSummary(Merge.softThreshold(entriesVector.iterator, minCount), 0.0, totalWeight, m)
}

object DeterministicSpaceSaving {
  def apply[T](m: Int, seed: Long): DeterministicSpaceSaving[T] =
    new DeterministicSpaceSaving[T](m, seed)
}
