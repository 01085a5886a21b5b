package repro.sampling

import repro.core.{HtEntry, Rng}
import scala.collection.mutable

/** Bottom-k sketch (Cohen & Kaplan 2007) with uniform per-item hashes —
  * the "uniform sampling of items" comparator of figure 4. Streaming over
  * **disaggregated** rows: each distinct item gets a fixed Uniform(0,1) hash
  * u(item); the k items with the smallest hashes are retained together with
  * their exact accumulated counts.
  *
  * The hash is a function of the item's 32-bit `##` alone, so distinct items
  * with equal `##` (such as "Aa" and "BB") share one hash: they enter and
  * leave the sample together, and the Horvitz-Thompson weight below, which
  * assumes independent hashes, does not hold for them. T3's distinct `Int`s
  * and T10's decimal order-key strings have no equal `##`.
  *
  * Because an item's hash never changes and the retention threshold only
  * shrinks, any item in the final sample entered the sketch at its first
  * occurrence and was never evicted — so retained counts are exact. Equal
  * hashes (distinct items with equal `##`) are ordered by first arrival.
  *
  * Space: the sketch keeps every item hashed below `cut`, and when more than
  * 2(k+1) are kept it prunes them to the k+1 smallest and lowers `cut` to the
  * (k+1)-th hash. So it holds at most 2k+3 items, and the sorts cost
  * amortized O(log k) per inserted item.
  *
  * Subset-sum estimator (conditional Horvitz-Thompson): with τ the (k+1)-th
  * smallest distinct hash, every sampled item has conditional inclusion
  * probability τ, giving N̂_S = Σ_{i∈S∩sample} w_i / τ (`HtSample`).
  */
final class BottomK[T](val k: Int, seed: Long) extends Serializable {
  require(k > 0, s"sample size must be positive, got k=$k")

  // Items hashed below `cut` → accumulated weight, in first-arrival order.
  private val kept = mutable.LinkedHashMap.empty[T, Double]
  private var cut = Double.PositiveInfinity
  private var totalW = 0.0

  /** Fixed uniform hash u(item) ∈ (0,1): splitmix64 finalizer over the item's
    * hash code mixed with the sketch seed — O(1) memory, stable per item.
    */
  private def hashOf(item: T): Double = {
    val z = Rng.mix64((item.## & 0xffffffffL) ^ (seed * 0x9e3779b97f4a7c15L))
    math.max((z >>> 11).toDouble / (1L << 53).toDouble, Double.MinPositiveValue)
  }

  def totalWeight: Double = totalW

  def update(item: T, w: Double = 1.0): Unit = {
    require(w > 0 && w < Double.PositiveInfinity, s"weights must be positive and finite, got $w")
    totalW += w
    kept.get(item) match {
      case Some(c) => kept.update(item, c + w)
      case None if hashOf(item) < cut =>
        kept.update(item, w)
        if (kept.size > 2 * (k + 1)) {
          val keep = smallest.take(k + 1)
          kept.clear()
          kept ++= keep
          cut = hashOf(keep.last._1)
        }
      case None => // hash at or above the cut: ignored forever.
    }
  }

  /** The kept items in hash order; a stable sort keeps equal hashes in arrival order. */
  private def smallest: Vector[(T, Double)] = kept.toVector.sortBy(e => hashOf(e._1))

  /** The k retained items (smallest hashes) in hash order, each with its exact
    * count w and adjusted weight w/τ; τ = 1 if fewer than k+1 items were seen.
    */
  def result: HtSample[T] = {
    val s = smallest
    val (sample, tau) = if (s.size <= k) (s, 1.0) else (s.take(k), hashOf(s(k)._1))
    HtSample(sample.map { case (i, c) => HtEntry(i, c, c / tau) }, tau)
  }
}

object BottomK {
  def apply[T](k: Int, seed: Long): BottomK[T] = new BottomK[T](k, seed)
}
