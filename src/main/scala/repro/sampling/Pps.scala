package repro.sampling

/** Probability-proportional-to-size sampling utilities (§5.1).
  *
  *  - `inclusionProbabilities`: the thresholded PPS marginals
  *    π_i = min(1, α·w_i) with α chosen (water-filling) so Σ π_i = k.
  *    These are the theoretical curves of figure 2.
  *  - `poissonVariance`: the closed-form variance Σ w_i²(1−π_i)/π_i of the
  *    Poisson PPS sample's Horvitz-Thompson estimator, the PPS reference
  *    line in figure 9. The tests check it against a Monte Carlo sampler.
  */
object Pps {

  /** Water-filling solve of Σ min(1, α·w_i) = k (all probabilities 1 when
    * k ≥ #items). Returns probabilities aligned with `weights`.
    */
  def inclusionProbabilities(weights: Seq[Double], k: Int): Array[Double] = {
    require(k > 0, s"sample size must be positive, got $k")
    weights.foreach(w => require(w > 0 && w < Double.PositiveInfinity, s"weights must be positive and finite, got $w"))
    val n = weights.size
    if (k >= n) return Array.fill(n)(1.0)
    // Sort descending; peel off certainty items while α·w > 1.
    val idx = weights.indices.sortBy(i => -weights(i))
    val sorted = idx.map(weights)
    val suffix = new Array[Double](n + 1)
    for (i <- n - 1 to 0 by -1) suffix(i) = suffix(i + 1) + sorted(i)
    var certain = 0
    // With `certain` items forced to 1, remaining budget k−certain spreads as
    // α = (k−certain)/Σ_rest; the split is valid once α·w_certain+1 ≤ 1.
    while (certain < k && (k - certain) * sorted(certain) > suffix(certain)) certain += 1
    val alpha = (k - certain).toDouble / suffix(certain)
    val pis = new Array[Double](n)
    for (j <- 0 until n) {
      val orig = idx(j)
      pis(orig) = if (j < certain) 1.0 else math.min(1.0, alpha * sorted(j))
    }
    pis
  }

  /** Exact variance of the Poisson PPS HT estimator for the subset selected
    * by `pred`: Σ_{i∈S} w_i²·(1−π_i)/π_i.
    */
  def poissonVariance[T](items: Seq[(T, Double)], k: Int)(pred: T => Boolean): Double = {
    val pis = inclusionProbabilities(items.map(_._2), k)
    items.iterator.zipWithIndex.collect { case ((i, w), j) if pred(i) =>
      w * w * (1 - pis(j)) / pis(j)
    }.sum
  }
}
