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

  /** Normal confidence interval at confidence level `conf` (default 95%),
    * 0 < conf < 1.
    */
  def ci(conf: Double = 0.95): (Double, Double) = {
    require(conf > 0 && conf < 1, s"confidence level must be in (0,1), got conf=$conf")
    val z = Estimate.normalQuantile(0.5 + conf / 2)
    (value - z * stddev, value + z * stddev)
  }

  /** Whether `truth` falls inside the `conf` interval — used for coverage
    * experiments (fig. 8 right panel).
    */
  def covers(truth: Double, conf: Double = 0.95): Boolean = {
    val (lo, hi) = ci(conf)
    lo <= truth && truth <= hi
  }
}

object Estimate {
  /** Inverse standard-normal CDF (Acklam's rational approximation, |ε|<1.15e-9).
    * Implemented locally — no stats library is available offline.
    */
  def normalQuantile(p: Double): Double = {
    require(p > 0 && p < 1, s"quantile level must be in (0,1), got $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }
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

  // Item → its position in `entries`, and the entries' counts in that order,
  // built on first use. Transient: a deserialized copy builds its own.
  @transient private lazy val index = new PositionIndex(entries.iterator.map[Any](_.item).toArray, entries.size)
  @transient private lazy val counts: Array[Double] = entries.iterator.map(_.count).toArray

  /** Point estimate N̂_i for a single item (0 if not in the sketch). */
  def estimate(item: T): Double = {
    val b = index(item)
    if (b >= 0) counts(b) else 0.0
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

  /** Subset sum over an explicit item set. A set smaller than the summary
    * probes the index once per item and marks the bins it hits, then adds the
    * marked counts in bin order, the order of `subsetSum`'s scan, so both
    * return the same bits. A larger set, or a summary that repeats an item,
    * takes the scan.
    */
  def subsetSumOf(items: Set[T]): Estimate =
    if (items.size >= entries.size || !index.distinct) subsetSum(items.contains)
    else {
      val ix = index
      val c = counts
      val marked = new java.util.BitSet(entries.size)
      items.foreach { x => val b = ix(x); if (b >= 0) marked.set(b) }
      var sum = 0.0
      var b = marked.nextSetBit(0)
      while (b >= 0) { sum += c(b); b = marked.nextSetBit(b + 1) }
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
