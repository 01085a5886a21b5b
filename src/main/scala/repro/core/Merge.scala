package repro.core

import scala.collection.mutable

/** One item of a Horvitz-Thompson sample (`repro.sampling.HtSample`): its
  * exact weight and its adjusted weight, which is never below it.
  */
final case class HtEntry[T](item: T, weight: Double, adjusted: Double)

/** Merge / size-reduction operations for Space Saving sketches (§5.3, §5.5).
  *
  * All merges first combine bins exactly (summing counts for shared labels —
  * an exact, lossless step) and then, if more than m bins remain, apply a
  * *reduction operation*. Theorem 2: any reduction whose post-reduction
  * expected counts equal the pre-reduction counts keeps the sketch unbiased
  * for disaggregated subset sums. Two unbiased reductions and the biased
  * deterministic one are provided:
  *
  *  - `pairwiseUnbiased`: repeatedly PPS-collapse the two smallest bins (the
  *    label survives with probability proportional to its count). This is the
  *    same reduction Unbiased Space Saving applies on every stream update, so
  *    it preserves the total weight *exactly* while staying unbiased.
  *  - `prioritySampled`: one-shot priority-sampling reduction
  *    (`priorityReduction`, which `PrioritySampling` shares) with
  *    Horvitz-Thompson adjusted counts `max(c_i, 1/τ)` (§5.5 suggests
  *    "replacing the pairwise randomization with priority sampling"). Unbiased
  *    per item, but the total is only preserved in expectation.
  *  - `misraGries`: the deterministic Agarwal et al. soft-threshold merge —
  *    biased downward, kept as the comparison point of figure 1.
  */
object Merge {

  /** Exact bin combination: per-label count sums and the summed total weight. */
  def combine[T](sketches: Seq[SketchSummary[T]]): (mutable.HashMap[T, Double], Double) = {
    val acc = mutable.HashMap.empty[T, Double]
    var total = 0.0
    sketches.foreach { s =>
      total += s.total
      s.entries.foreach { e =>
        acc.updateWith(e.item) { case Some(c) => Some(c + e.count); case None => Some(e.count) }
      }
    }
    (acc, total)
  }

  /** Unbiased, total-preserving merge via repeated two-smallest-bin PPS
    * collapse. Returns a live sketch that can keep ingesting rows.
    */
  def pairwiseUnbiased[T](m: Int, seed: Long, sketches: Seq[SketchSummary[T]]): UnbiasedSpaceSaving[T] = {
    val (acc, total) = combine(sketches)
    val rng = Rng(seed)
    // Min-heap of (count bits, tie-break) keys over ids into `items`; the
    // ties are drawn in `acc`'s iteration order.
    val items = new Array[Any](acc.size)
    val heap = new KeyHeap(acc.size)
    acc.foreach { case (i, c) =>
      val id = heap.size
      items(id) = i
      heap.push(KeyHeap.bits(c), rng.nextLong(), id)
    }
    while (heap.size > m) {
      val c1 = KeyHeap.count(heap.key(0)); val i1 = heap.id(0)
      heap.pop()
      val c2 = KeyHeap.count(heap.key(0)); val i2 = heap.id(0)
      val c = c1 + c2
      // As an update's miss: relabel the minimum, then re-key the root.
      if (rng.nextDouble() < c1 / c) items(i2) = items(i1)
      heap.rekey(0, KeyHeap.bits(c), rng.nextLong())
    }
    // Survivors in ascending (count, tie-break) order.
    val entries = Vector.newBuilder[Entry[T]]
    while (heap.size > 0) {
      entries += Entry(items(heap.id(0)).asInstanceOf[T], KeyHeap.count(heap.key(0)))
      heap.pop()
    }
    UnbiasedSpaceSaving.fromEntries(m, rng.nextLong(), entries.result(), total)
  }

  /** Unbiased merge via `priorityReduction` of the combined bins; the merged
    * sketch's seed is the next draw of the same generator.
    */
  def prioritySampled[T](m: Int, seed: Long, sketches: Seq[SketchSummary[T]]): UnbiasedSpaceSaving[T] = {
    val (acc, total) = combine(sketches)
    val rng = Rng(seed)
    val (kept, _) = priorityReduction(acc, m, rng)
    UnbiasedSpaceSaving.fromEntries(m, rng.nextLong(), kept.map(e => Entry(e.item, e.adjusted)), total)
  }

  /** Priority sampling (Duffield, Lund & Thorup 2007; §5.5): each (item,
    * weight) pair, in iteration order, draws U_i and gets the priority
    * U_i/w_i. The m smallest priorities are kept, in ascending priority
    * order, with adjusted weights `max(w_i, 1/τ)`, τ the (m+1)-th smallest
    * priority. With at most m pairs every pair is kept as it is, τ = 0 and
    * nothing is drawn. Weights must be positive and finite. Returns the kept
    * items and τ.
    */
  def priorityReduction[T](items: Iterable[(T, Double)], m: Int, rng: Rng): (Vector[HtEntry[T]], Double) = {
    require(m > 0, s"sample size must be positive, got $m")
    items.foreach { case (i, w) =>
      require(w > 0 && w < Double.PositiveInfinity, s"weights must be positive and finite, got $w for item $i")
    }
    if (items.sizeIs <= m) (items.iterator.map { case (i, w) => HtEntry(i, w, w) }.toVector, 0.0)
    else {
      val prioritized = items.iterator.map { case (i, w) =>
        val u = math.max(rng.nextDouble(), Double.MinPositiveValue)
        (u / w, i, w)
      }.toArray.sortBy(_._1)
      val tau = prioritized(m)._1
      (prioritized.iterator.take(m).map { case (_, i, w) => HtEntry(i, w, math.max(w, 1.0 / tau)) }.toVector, tau)
    }
  }

  /** Deterministic biased merge: soft-threshold combined counts by the
    * (m+1)-th largest so at most m nonzero counters remain (§5.5).
    */
  def misraGries[T](m: Int, sketches: Seq[SketchSummary[T]]): SketchSummary[T] = {
    val (acc, total) = combine(sketches)
    val theta = if (acc.size <= m) 0.0 else acc.valuesIterator.toArray.sortBy(-_).apply(m)
    SketchSummary(softThreshold(acc.iterator.map { case (i, c) => Entry(i, c) }, theta), 0.0, total, m)
  }

  /** The Misra-Gries soft threshold (c − θ)₊ of every bin, dropping the bins
    * it zeroes; the bins keep their order. The §5.2 isomorphism maps a Space
    * Saving count to its Misra-Gries counter with θ = N̂_min, and the merge
    * above uses θ = the (m+1)-th largest combined count.
    */
  def softThreshold[T](bins: Iterator[Entry[T]], theta: Double): Vector[Entry[T]] =
    bins.map(e => Entry(e.item, math.max(0.0, e.count - theta))).filter(_.count > 0).toVector
}
