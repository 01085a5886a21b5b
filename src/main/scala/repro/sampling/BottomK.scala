package repro.sampling

import repro.core.{HtEntry, Rng}
import scala.collection.immutable.TreeMap

/** Bottom-k sketch (Cohen & Kaplan 2007) with uniform per-item hashes —
  * the "uniform sampling of items" comparator of figure 4. Streaming over
  * **disaggregated** rows: each distinct item gets a fixed Uniform(0,1) hash
  * u(item); the k items with the smallest hashes are retained together with
  * their exact accumulated counts.
  *
  * Because an item's hash never changes and the retention threshold only
  * shrinks, any item in the final sample entered the sketch at its first
  * occurrence and was never evicted — so retained counts are exact.
  *
  * Subset-sum estimator (conditional Horvitz-Thompson): with τ the (k+1)-th
  * smallest distinct hash, every sampled item has conditional inclusion
  * probability τ, giving N̂_S = Σ_{i∈S∩sample} w_i / τ (`HtSample`).
  */
final class BottomK[T](val k: Int, seed: Long) extends Serializable {
  require(k > 0, s"sample size must be positive, got k=$k")

  // (hash, item) → accumulated weight; keeps the k+1 smallest-hash items.
  private var retained = TreeMap.empty[(Double, Int), (T, Double)]
  private val slot = scala.collection.mutable.HashMap.empty[T, (Double, Int)]
  private var nextId = 0
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
    slot.get(item) match {
      case Some(key) =>
        val (it, c) = retained(key)
        retained = retained.updated(key, (it, c + w))
      case None =>
        val u = hashOf(item)
        if (retained.size < k + 1) insert(u, item, w)
        else {
          val (maxKey, (maxItem, _)) = retained.last
          if (u < maxKey._1) {
            retained = retained - maxKey
            slot.remove(maxItem)
            insert(u, item, w)
          }
          // else: hash above the retention threshold — ignored forever.
        }
    }
  }

  private def insert(u: Double, item: T, w: Double): Unit = {
    val key = (u, nextId)
    nextId += 1
    retained = retained.updated(key, (item, w))
    slot.update(item, key)
  }

  /** The k retained items (smallest hashes) in hash order, each with its exact
    * count w and adjusted weight w/τ; τ = 1 if fewer than k+1 items were seen.
    */
  def result: HtSample[T] = {
    val (kept, tau) = if (retained.size <= k) (retained, 1.0) else (retained.init, retained.last._1._1)
    HtSample(kept.valuesIterator.map { case (i, c) => HtEntry(i, c, c / tau) }.toVector, tau)
  }
}

object BottomK {
  def apply[T](k: Int, seed: Long): BottomK[T] = new BottomK[T](k, seed)
}
