package repro.data

import repro.core.Rng

/** Synthetic disaggregated streams following §7 of the paper.
  *
  * Item counts are drawn from a *discretized Weibull* distribution via the
  * inverse-CDF method on a regular grid — exactly the paper's recipe
  * ("n_i = F⁻¹(U_i) where the U_i are on a regular grid of 1000 values") —
  * so streams are fully deterministic in their parameters. The stream itself
  * is the disaggregated expansion: item i contributes n_i unit-weight rows,
  * arranged in one of the orderings the paper evaluates:
  *
  *  - `permuted`: uniformly random row order ≙ exchangeable ≙ i.i.d. in the
  *    limit (de Finetti), the main-line experiments;
  *  - `sortedAscending`: rows sorted by item frequency ascending — the
  *    worst case for Unbiased Space Saving (§7.1);
  *  - `twoHalves`: two independently shuffled halves over disjoint item
  *    ranges — the natural pathological case for Deterministic Space Saving
  *    (figure 7: partitioned data processed partition by partition).
  */
object Streams {

  /** Weibull(scale, shape) quantile function. */
  private def weibullQuantile(u: Double, scale: Double, shape: Double): Double =
    scale * math.pow(-math.log1p(-u), 1.0 / shape)

  /** Discretized Weibull counts for `nItems` items on the regular grid
    * u_j = (j − 0.5)/nItems. Zero counts are bumped to 1 so every item
    * exists. Smaller `shape` ⇒ heavier tail ⇒ more skew.
    */
  def weibullCounts(nItems: Int, shape: Double, scale: Double): Array[Long] = {
    require(nItems > 0 && shape > 0 && scale > 0,
      s"bad Weibull parameters: nItems=$nItems shape=$shape scale=$scale")
    Array.tabulate(nItems) { j =>
      val u = (j + 0.5) / nItems
      math.max(1L, math.round(weibullQuantile(u, scale, shape)))
    }
  }

  /** Expand per-item counts into a row stream: item ids are the (0-based)
    * indices into `counts`; row order given by `order`.
    */
  def expand(counts: Array[Long], order: Order, seed: Long): Array[Int] = {
    val total = counts.sum
    require(total <= Int.MaxValue, s"stream of $total rows does not fit in an array")
    val rows = new Array[Int](total.toInt)
    var p = 0
    // Ascending frequency: item 0 has the grid's smallest count.
    for (i <- counts.indices; _ <- 0L until counts(i)) { rows(p) = i; p += 1 }
    order match {
      case Order.SortedAscending => rows
      case Order.Permuted        => shuffled(rows, Rng(seed))
      case Order.TwoHalves =>
        // Items split at n/2 by id: first half = items [0, n/2), second
        // half = items [n/2, n); each half shuffled independently.
        val cut = counts.length / 2
        val (a, b) = rows.partition(_ < cut)
        val rng = Rng(seed)
        shuffled(a, rng) ++ shuffled(b, rng)
    }
  }

  /** Fisher–Yates in place, from the last position down; returns `a`. */
  private def shuffled(a: Array[Int], rng: Rng): Array[Int] = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a
  }

  sealed trait Order
  object Order {
    case object Permuted extends Order
    case object SortedAscending extends Order
    case object TwoHalves extends Order
  }

  /** Partition item ids [0, nItems) into `k` equal epochs by ascending item
    * id (≙ ascending frequency for `weibullCounts` grids) — the query
    * granularity of the sorted-stream experiments (figures 8–10).
    */
  def epochs(nItems: Int, k: Int): Vector[Range] = {
    require(nItems % k == 0, s"nItems=$nItems must be divisible by epochs=$k")
    val w = nItems / k
    (0 until k).map(e => (e * w) until ((e + 1) * w)).toVector
  }

  /** Fixed random subsets of `size` item ids out of [0, nItems) — the random
    * filter conditions of §7 ("we draw random subsets of 100 items").
    */
  def randomSubsets(nItems: Int, size: Int, howMany: Int, seed: Long): Vector[Set[Int]] = {
    val rng = Rng(seed)
    Vector.fill(howMany)(shuffled(Array.range(0, nItems), rng).take(size).toSet)
  }
}
