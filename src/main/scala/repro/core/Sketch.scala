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

  /** Items with estimated relative frequency above `phi` (frequent items),
    * largest first: the leading run of `topK(size)` above the threshold.
    */
  def frequentItems(phi: Double): Vector[Entry[T]] = {
    require(phi > 0 && phi < 1, s"phi must be in (0,1), got $phi")
    topK(size).takeWhile(_.count > phi * total)
  }

  /** The k bins with the largest estimated counts, largest first, equal
    * counts in entry order: a stable sort on count, cut to k (all bins when
    * k > size, none when k <= 0).
    *
    * Selection in O(n log k) with no boxing: one pass over the bins keeps at
    * most k candidates in a binary min-heap, the weakest at the root. The
    * weakest has the smallest count and, among equal counts, the latest
    * position. A later bin replaces it only with a strictly larger count.
    * The heap is then popped into descending order. A count ranks by the key
    * of a sort on `-count`, as a `Long` that orders as `Double.compare`
    * orders the key, so NaN and -0.0 counts rank as the sort ranks them.
    */
  def topK(k: Int): Vector[Entry[T]] = {
    val want = math.min(math.max(k, 0), entries.size)
    if (want == 0) return Vector.empty
    // The candidates in heap order: the rank key and the position of each.
    val key = new Array[Long](want)
    val pos = new Array[Int](want)
    // Whether (x, p) ranks after (y, q): a larger key, or an equal key and a
    // later position.
    def after(x: Long, p: Int, y: Long, q: Int): Boolean = x > y || (x == y && p > q)
    // Puts (x, p) at the root and moves it down among the first `until` slots.
    def sink(x: Long, p: Int, until: Int): Unit = {
      var i = 0
      var child = 1
      while (child < until) {
        if (child + 1 < until && after(key(child + 1), pos(child + 1), key(child), pos(child))) child += 1
        if (after(key(child), pos(child), x, p)) {
          key(i) = key(child); pos(i) = pos(child); i = child; child = 2 * i + 1
        } else child = until
      }
      key(i) = x; pos(i) = p
    }
    // The first `want` bins fill the heap. A later bin ranks after every
    // candidate it ties, so it enters only with a smaller key. The scan is a
    // `foreach` body, not a loop here: the body is compiled after a few
    // hundred bins, while a loop in a method called once per answer would
    // run interpreted for its first dozen calls.
    var b = 0
    entries.foreach { e =>
      val bits = java.lang.Double.doubleToLongBits(-e.count)
      val x = bits ^ ((bits >> 63) & Long.MaxValue)
      if (b < want) {
        var i = b
        while (i > 0 && after(x, b, key((i - 1) / 2), pos((i - 1) / 2))) {
          key(i) = key((i - 1) / 2); pos(i) = pos((i - 1) / 2); i = (i - 1) / 2
        }
        key(i) = x; pos(i) = b
      } else if (x < key(0)) sink(x, b, want)
      b += 1
    }
    // Pop the weakest to the back until the heap is empty.
    val out = new Array[Entry[T]](want)
    var left = want
    while (left > 0) {
      left -= 1
      out(left) = entries(pos(0))
      sink(key(left), pos(left), left)
    }
    out.toVector
  }

  /** Number of occupied bins. */
  def size: Int = entries.size
}
