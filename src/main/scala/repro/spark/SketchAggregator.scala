package repro.spark

import org.apache.spark.TaskContext
import org.apache.spark.sql.{Encoder, Encoders}
import org.apache.spark.sql.expressions.Aggregator
import repro.core.{Entry, Merge, Rng, SketchSummary, UnbiasedSpaceSaving}

/** One input row of the disaggregated stream: an item key and a weight (1.0
  * for plain counting). A zero weight adds nothing and is skipped; a null
  * weight reaches `reduce` as 0.0 and is skipped too, as `SUM` skips it. A
  * negative, NaN or infinite weight fails the job, naming the weight. A null
  * item is counted as one more item, with a null label.
  */
final case class ItemWeight(item: String, weight: Double)

/** Serializable sketch bin for the aggregation output. */
final case class SketchEntryRow(item: String, count: Double)

/** Aggregation result: the m (or fewer) bins, N̂_min, and the total weight —
  * everything `SketchSummary` needs for subset sums (eq. 5) and top-k.
  */
final case class SketchResultRow(entries: Array[SketchEntryRow], minCount: Double, total: Double) {
  def toSummary(m: Int): SketchSummary[String] =
    SketchSummary(entries.iterator.map(e => Entry(e.item, e.count)).toVector, minCount, total, m)
}

/** Unbiased Space Saving as a Spark typed aggregate (the paper's §5.5
  * "Merging and Distributed counting" realized on Catalyst).
  *
  * Each partition builds a local sketch (`reduce` = Algorithm 1's update);
  * partial results are combined with the unbiased *pairwise PPS collapse*
  * merge, which preserves the total weight exactly and keeps every per-item
  * count unbiased (Theorem 2). The buffer travels via Java serialization.
  *
  * Randomness: a new buffer's seed is `Rng.scramble(seed ^ partitionId << 32
  * ^ ordinal)`, the ordinal counting the buffers its task has made, so
  * partitions and groups draw independently; a merge is seeded from both
  * buffers' seeds. A rerun over the same partitioning gives the same summary
  * as long as merges see the buffers in the same order.
  */
final class UnbiasedSpaceSavingAgg(m: Int, seed: Long)
    extends Aggregator[ItemWeight, UnbiasedSpaceSaving[String], SketchResultRow] {

  @transient private lazy val counter = new java.util.concurrent.atomic.AtomicInteger()

  override def zero: UnbiasedSpaceSaving[String] = {
    val pid = Option(TaskContext.get()).map(_.partitionId()).getOrElse(-1)
    new UnbiasedSpaceSaving[String](m, Rng.scramble(seed ^ (pid.toLong << 32) ^ counter.getAndIncrement().toLong))
  }

  override def reduce(b: UnbiasedSpaceSaving[String], a: ItemWeight): UnbiasedSpaceSaving[String] = {
    if (a.weight != 0.0) b.update(a.item, a.weight)
    b
  }

  override def merge(b1: UnbiasedSpaceSaving[String], b2: UnbiasedSpaceSaving[String]): UnbiasedSpaceSaving[String] =
    Merge.pairwiseUnbiased(m, Rng.scramble(b1.seed ^ b2.seed), Seq(b1.summary, b2.summary))

  override def finish(b: UnbiasedSpaceSaving[String]): SketchResultRow = {
    val es = b.entriesVector.map(e => SketchEntryRow(e.item, e.count)).toArray
    SketchResultRow(es, b.minCount, b.totalWeight)
  }

  // Java serialization: the sketch (primitive arrays, labels and the RNG
  // state; the item index is rebuilt on read) is fully Serializable, and
  // unlike Kryo's field reflection it needs no --add-opens into java.base on
  // JDK 17+.
  override def bufferEncoder: Encoder[UnbiasedSpaceSaving[String]] =
    Encoders.javaSerialization[UnbiasedSpaceSaving[String]]

  override def outputEncoder: Encoder[SketchResultRow] = Encoders.product[SketchResultRow]
}
