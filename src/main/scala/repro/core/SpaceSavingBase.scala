package repro.core

import KeyHeap.{bits, count}

/** Shared machinery for the two Space Saving variants (Algorithm 1).
  *
  * State is m bins, each an (item, count) pair, plus:
  *
  *  - a `PositionIndex` item → bin over the `labels` array for O(1)
  *    membership (Scala `##`/`==`, as every summary and merge matches items,
  *    the null item allowed), entered as bins fill and removed on relabel,
  *  - an indexed binary min-heap over bins keyed by (count, tieBreak) so the
  *    smallest bin is found in O(1) and updates cost O(log m). The heap holds
  *    the keys themselves in heap order (`KeyHeap`), so counts live there, as
  *    their raw bits.
  *
  * The tie-break key is re-randomized every time a bin's count changes, which
  * realizes the paper's assumption (§6.1) that when several bins share the
  * minimum count the one to increment is chosen at random.
  *
  * Counts are Doubles: the §5.3 generalization allows arbitrary positive
  * real-valued weights, and merge reductions (§5.5) produce Horvitz-Thompson
  * adjusted (non-integer) counts.
  *
  * Subclasses choose the label-replacement probability — the single line that
  * separates Deterministic from Unbiased Space Saving.
  */
abstract class SpaceSavingBase[T](val m: Int, val seed: Long) extends Serializable {
  require(m > 0, s"sketch must have at least one bin, got m=$m")

  private val rng = Rng(seed)

  private val labels = new Array[Any](m)
  private val heap = new KeyHeap(m)
  // Rebuilt from `labels` after deserialization rather than shipped.
  @transient private var index = new PositionIndex(labels, 0)
  private var totalW = 0.0

  /** Probability of overwriting the minimum bin's label when a weight-`w`
    * update for an unseen item lands on a bin currently holding `minCount`.
    */
  protected def replaceProb(minCount: Double, w: Double): Double

  /** Total weight processed (t for unit-weight streams). For stream-built
    * sketches this equals Σ counts exactly — every update adds its full
    * weight to exactly one bin.
    */
  def totalWeight: Double = totalW

  /** Number of occupied bins (≤ m). */
  def size: Int = heap.size

  /** N̂_min: count of the smallest bin, or 0 while the sketch is not full
    * (conceptually the remaining bins hold count 0).
    */
  def minCount: Double = if (heap.size < m) 0.0 else count(heap.key(0))

  /** Point estimate for one item: its bin count if it labels a bin, else 0. */
  def estimate(item: T): Double = {
    val b = index(item)
    if (b >= 0) count(heap.key(heap.slotOf(b))) else 0.0
  }

  /** Whether `item` currently labels a bin. */
  def contains(item: T): Boolean = index(item) >= 0

  /** Process one row: item `item` with positive weight `w` (§5.3 allows any
    * positive real weight; unit-weight streams use w = 1). Zero, negative,
    * NaN and infinite weights are rejected: an infinite one would make the
    * total weight, and every subset sum over its bin, infinite. A `Double` or
    * `Float` NaN item is rejected as well: it never `==` itself, so each of
    * its rows would open a bin that no query finds. Only a miss checks it.
    */
  def update(item: T, w: Double = 1.0): Unit = {
    require(w > 0 && w < Double.PositiveInfinity, s"weights must be positive and finite, got $w")
    val b = index(item)
    if (b >= 0) {
      val s = heap.slotOf(b)
      heap.rekey(s, bits(count(heap.key(s)) + w), rng.nextLong())
    } else if (isNaN(item)) {
      throw new IllegalArgumentException(s"items must not be NaN, got $item")
    } else if (heap.size < m) {
      // Equivalent to incrementing one of the count-0 bins and taking its label.
      val nb = heap.size
      labels(nb) = item
      index.put(nb)
      heap.push(bits(w), rng.nextLong(), nb)
    } else {
      val mb = heap.id(0)
      val nmin = count(heap.key(0))
      if (rng.nextDouble() < replaceProb(nmin, w)) {
        index.remove(mb)
        labels(mb) = item
        index.put(mb)
      }
      heap.rekey(0, bits(nmin + w), rng.nextLong())
    }
    totalW += w
  }

  private def isNaN(x: Any): Boolean = x match { case d: Double => d.isNaN; case f: Float => f.isNaN; case _ => false }

  /** Process a batch of unit-weight rows. */
  def updateAll(items: IterableOnce[T]): Unit = items.iterator.foreach(update(_))

  /** Snapshot the sketch state for querying. */
  def summary: SketchSummary[T] = SketchSummary(entriesVector, minCount, totalW, m)

  /** Current bins as entries, in bin order. */
  def entriesVector: Vector[Entry[T]] =
    (0 until heap.size).iterator
      .map(b => Entry(labels(b).asInstanceOf[T], count(heap.key(heap.slotOf(b))))).toVector

  private def readObject(in: java.io.ObjectInputStream): Unit = {
    in.defaultReadObject()
    index = new PositionIndex(labels, heap.size)
  }

  // ---- bulk operations ------------------------------------------------------

  /** Load pre-existing entries (merge outputs). Requires an empty sketch and
    * at most m entries with positive, finite counts and distinct items (under
    * `==`, so 1 and 1L are one item, as `Merge.combine` would merge them); sets
    * totalWeight to `total`, which must be finite and non-negative (for
    * unbiased merges it is the sum of the input sketches' totals). Infinite
    * counts are rejected for the reason `update` gives. Each entry is then one
    * `update` of its item by its count, which takes the next free bin, so
    * `update` rejects a NaN item here too.
    */
  protected[core] def load(entries: Seq[Entry[T]], total: Double): Unit = {
    require(heap.size == 0, "load requires an empty sketch")
    require(entries.size <= m, s"cannot load ${entries.size} entries into $m bins")
    require(total >= 0 && total < Double.PositiveInfinity, s"total weight must be finite and non-negative, got $total")
    entries.foreach { e =>
      require(e.count > 0 && e.count < Double.PositiveInfinity, s"entry counts must be positive and finite, got $e")
      require(!contains(e.item), s"duplicate item ${e.item} in load")
      update(e.item, e.count)
    }
    totalW = total
  }
}

/** Binary min-heap of (key, tie) `Long` pairs, each carrying an int id in
  * [0, capacity). Keys sit inline in heap order, so comparisons read two
  * parallel arrays instead of following a bin index; `slotOf(id)` is where an
  * id currently sits. Sifts move a hole instead of swapping. The sketch and
  * the pairwise merge key a bin by `KeyHeap.bits` of its count.
  *
  * Contract: pairs compare by key, then tie, and every sift picks the same
  * slots as the textbook swap-based sift, equal pairs included: a pair sinks
  * into its smaller child (the right one only when strictly smaller) while
  * that child is strictly smaller, and rises while strictly smaller than its
  * parent. So which slot each id sits in, and every output read from the
  * heap, depends only on the operations and their (key, tie) pairs, not on
  * how a sift is coded.
  *
  * `siftDown` picks the smaller child without a branch: the tie keys are
  * random, so on a stream whose bins mostly share N̂_min the "right child
  * wins" outcome is a coin flip that a predicted branch gets wrong half the
  * time. It reads the right child's pair before knowing the child exists,
  * which is why `key` and `tie` carry one spare slot past `capacity`;
  * whatever sits there is masked out of the pick.
  */
private[core] final class KeyHeap(capacity: Int) extends Serializable {
  val key = new Array[Long](capacity + 1)
  val tie = new Array[Long](capacity + 1)
  val id = new Array[Int](capacity)
  val slotOf = new Array[Int](capacity)
  var size = 0

  private def less(k1: Long, t1: Long, k2: Long, t2: Long): Boolean =
    k1 < k2 || (k1 == k2 && t1 < t2)

  def push(k: Long, t: Long, i: Int): Unit = {
    val s = size
    size += 1
    siftUp(s, k, t, i)
  }

  /** Give the pair at slot `s` the new pair (k, t) and restore heap order. */
  def rekey(s: Int, k: Long, t: Long): Unit = {
    val i = id(s)
    if (siftDown(s, k, t, i) == s) siftUp(s, k, t, i)
  }

  /** Remove the minimum. */
  def pop(): Unit = {
    size -= 1
    if (size > 0) siftDown(0, key(size), tie(size), id(size))
  }

  private def place(s: Int, k: Long, t: Long, i: Int): Unit = {
    key(s) = k; tie(s) = t; id(s) = i; slotOf(i) = s
  }

  /** Sift (k, t, i) down from the hole at `s0`; returns its final slot. */
  private def siftDown(s0: Int, k: Long, t: Long, i: Int): Int = {
    var s = s0
    var l = 2 * s + 1
    var done = false
    while (!done && l < size) {
      val r = l + 1
      // Smaller child, right only on a strict win (as the textbook pick);
      // non-short-circuit & and | keep it a data dependency, not a branch.
      val ch = l + ((r < size) & ((key(r) < key(l)) | ((key(r) == key(l)) & (tie(r) < tie(l))))).compare(false)
      val ck = key(ch)
      val ct = tie(ch)
      if (less(ck, ct, k, t)) {
        place(s, ck, ct, id(ch))
        s = ch
        l = 2 * s + 1
      } else done = true
    }
    place(s, k, t, i)
    s
  }

  /** Sift (k, t, i) up from the hole at `s0`. */
  private def siftUp(s0: Int, k: Long, t: Long, i: Int): Unit = {
    var s = s0
    var p = (s - 1) / 2
    while (s > 0 && less(k, t, key(p), tie(p))) {
      place(s, key(p), tie(p), id(p))
      s = p
      p = (s - 1) / 2
    }
    place(s, k, t, i)
  }
}

private[core] object KeyHeap {
  /** A positive count as a key: its raw bits, which order and compare equal
    * as positive doubles, +∞ included, do. `count` reads it back.
    */
  def bits(c: Double): Long = java.lang.Double.doubleToRawLongBits(c)
  def count(k: Long): Double = java.lang.Double.longBitsToDouble(k)
}
