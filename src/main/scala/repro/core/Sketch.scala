package repro.core

/** One sketch bin: an item label and its estimated (possibly Horvitz-Thompson
  * adjusted) count.
  */
final case class Entry[T](item: T, count: Double)

/** A point estimate together with its estimated variance (paper eq. 5).
  *
  * The variance estimate is deliberately *upward* biased (§6.4) so that the
  * derived normal confidence intervals err toward over-coverage, which §6.5
  * argues is the safe direction for a reporting system.
  */
final case class Estimate(value: Double, variance: Double) {
  /** Estimated standard deviation. */
  def stddev: Double = math.sqrt(variance)

  /** 95% normal confidence interval, value ± z·sd with z = Φ⁻¹(0.975), the
    * level the paper reports (§6.5, fig. 8).
    */
  def ci: (Double, Double) = (value - Estimate.Z95 * stddev, value + Estimate.Z95 * stddev)

  /** Whether `truth` falls inside the 95% interval — used for coverage
    * experiments (fig. 8 right panel).
    */
  def covers(truth: Double): Boolean = {
    val (lo, hi) = ci
    lo <= truth && truth <= hi
  }
}

object Estimate {
  /** Φ⁻¹(0.975), the two-sided 95% standard-normal quantile. */
  private val Z95 = 1.959963984540054
}

/** Immutable snapshot of a sketch's state, carrying everything needed to
  * answer the paper's two query classes:
  *
  *  - disaggregated subset sums with the eq.-5 variance estimate, and
  *  - frequent items / top-k.
  *
  * `minCount` is N̂_min, the count of the smallest bin at snapshot time (0 if
  * the sketch never filled), `total` is the total weight processed (for a
  * stream-built Space Saving sketch this equals Σ counts exactly), and `m` is
  * the sketch capacity in bins.
  */
final case class SketchSummary[T](entries: Vector[Entry[T]], minCount: Double,
                                  total: Double, m: Int) {

  // Item → its position in `entries`, built on first use, so a summary that
  // repeats an item fails at its first `estimate`, `contains` or
  // `subsetSumOf`. Transient: a deserialized copy builds its own.
  @transient private lazy val index = new PositionIndex(entries.iterator.map[Any](_.item).toArray, entries.size)

  /** Point estimate N̂_i for a single item (0 if not in the sketch). */
  def estimate(item: T): Double = {
    val b = index(item)
    if (b >= 0) entries(b).count else 0.0
  }

  /** Whether the item currently labels a bin (the Z_i indicator of Table 1). */
  def contains(item: T): Boolean = index(item) >= 0

  /** Unbiased subset-sum estimate N̂_S = Σ_{i∈S} N̂_i over items matching
    * `pred`, with the paper's variance estimate
    * `Var̂(N̂_S) = N̂_min² · C_S` (eq. 5) where C_S = max(1, #matching bins).
    */
  def subsetSum(pred: T => Boolean): Estimate = {
    var sum = 0.0
    var hits = 0
    entries.foreach { e => if (pred(e.item)) { sum += e.count; hits += 1 } }
    eq5(sum, hits)
  }

  private def eq5(sum: Double, hits: Int): Estimate = Estimate(sum, minCount * minCount * math.max(1, hits))

  /** Subset sum over an explicit item set. Probes the index once per item
    * and marks the bins it hits, then adds the marked counts in bin order,
    * the order of `subsetSum`'s scan, so both return the same bits.
    */
  def subsetSumOf(items: Set[T]): Estimate = {
    val ix = index
    val marked = new java.util.BitSet(entries.size)
    items.foreach { x => val b = ix(x); if (b >= 0) marked.set(b) }
    var sum = 0.0
    var b = marked.nextSetBit(0)
    while (b >= 0) { sum += entries(b).count; b = marked.nextSetBit(b + 1) }
    eq5(sum, marked.cardinality)
  }

  /** Items with estimated relative frequency above `phi` (frequent items). */
  def frequentItems(phi: Double): Vector[Entry[T]] = {
    require(phi > 0 && phi < 1, s"phi must be in (0,1), got $phi")
    entries.filter(_.count > phi * total).sortBy(-_.count)
  }

  /** The k bins with the largest estimated counts. */
  def topK(k: Int): Vector[Entry[T]] = entries.sortBy(-_.count).take(k)

  /** Number of occupied bins. */
  def size: Int = entries.size
}
