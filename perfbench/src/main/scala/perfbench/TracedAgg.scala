package perfbench

import java.io.{ObjectOutputStream, OutputStream}
import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.sql.Encoder
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.util.{CollectionAccumulator, LongAccumulator}
import repro.core.UnbiasedSpaceSaving
import repro.spark.{ItemWeight, SketchResultRow, UnbiasedSpaceSavingAgg}

/** Accumulators one traced query reports through (registered on the driver,
  * added to in tasks).
  */
final class AggCounters(@transient private val sc: SparkContext) extends Serializable {
  private def long(n: String): LongAccumulator = sc.longAccumulator(n)
  val buffers: LongAccumulator = long("buffers")
  val reduceCalls: LongAccumulator = long("reduceCalls")
  val reduceNs: LongAccumulator = long("reduceNs")
  val misses: LongAccumulator = long("misses")
  val fullMisses: LongAccumulator = long("fullMisses")
  val replacements: LongAccumulator = long("replacements")
  val mergeCalls: LongAccumulator = long("mergeCalls")
  val mergeNs: LongAccumulator = long("mergeNs")
  val binsIn: LongAccumulator = long("binsIn")
  val binsOut: LongAccumulator = long("binsOut")
  val bufferBytes: LongAccumulator = long("bufferBytes")
  val finishCalls: LongAccumulator = long("finishCalls")
  val finishNs: LongAccumulator = long("finishNs")
  val spans: CollectionAccumulator[Span] = sc.collectionAccumulator[Span]("spans")
}

/** Per-task reduce tallies, flushed to the accumulators as one span when the
  * task completes.
  */
private final class ReduceTally(val taskId: Long) {
  var rows, busyNs, misses, fullMisses, replacements = 0L
  var firstNs, lastNs = 0L
}

/** Delegating aggregator for the traced run: it forwards every call to
  * `UnbiasedSpaceSavingAgg` and counts and times `zero`, `reduce` and `merge`.
  * Around each `reduce` it probes `contains` (outside the timed call) for
  * miss and label-replacement counts; before each `merge` it Java-serializes
  * the incoming partial buffer, the same encoding Spark ships, for its size.
  * `finish` is counted and timed as well.
  */
final class TracedAgg(inner: UnbiasedSpaceSavingAgg, m: Int, c: AggCounters)
    extends Aggregator[ItemWeight, UnbiasedSpaceSaving[String], SketchResultRow] {
  private type B = UnbiasedSpaceSaving[String]

  @transient private var tally: ReduceTally = _

  private def taskTally(): ReduceTally = {
    val tc = TaskContext.get()
    val id = if (tc == null) -1L else tc.taskAttemptId()
    if (tally == null || tally.taskId != id) {
      val t = new ReduceTally(id)
      if (tc != null) tc.addTaskCompletionListener[Unit](_ => flush(t, tc))
      tally = t
    }
    tally
  }

  private def flush(t: ReduceTally, tc: TaskContext): Unit = if (t.rows > 0) {
    c.reduceCalls.add(t.rows)
    c.reduceNs.add(t.busyNs)
    c.misses.add(t.misses)
    c.fullMisses.add(t.fullMisses)
    c.replacements.add(t.replacements)
    val qid = Option(tc.getLocalProperty(SparkWorkload.QidProperty)).getOrElse("")
    c.spans.add(Span("spark.agg.reduce", s"reduce:${t.taskId}", s"task:${t.taskId}", qid,
      Clock.epochUs(t.firstNs), Clock.epochUs(t.lastNs),
      Map("rows" -> t.rows.toDouble, "busy_ns" -> t.busyNs.toDouble,
          "misses" -> t.misses.toDouble, "replacements" -> t.replacements.toDouble)))
  }

  override def zero: B = { c.buffers.add(1); inner.zero }

  override def reduce(b: B, a: ItemWeight): B = {
    val t = taskTally()
    val miss = !b.contains(a.item)
    val full = b.size == m
    val t0 = System.nanoTime()
    inner.reduce(b, a)
    val t1 = System.nanoTime()
    if (t.rows == 0) t.firstNs = t0
    t.lastNs = t1
    t.rows += 1
    t.busyNs += t1 - t0
    if (miss) {
      t.misses += 1
      if (full) { t.fullMisses += 1; if (b.contains(a.item)) t.replacements += 1 }
    }
    b
  }

  override def merge(b1: B, b2: B): B = {
    val bytes = TracedAgg.serializedSize(b2)
    val binsIn = b1.size + b2.size
    val t0 = System.nanoTime()
    val r = inner.merge(b1, b2)
    val t1 = System.nanoTime()
    c.mergeCalls.add(1)
    c.mergeNs.add(t1 - t0)
    c.binsIn.add(binsIn)
    c.binsOut.add(r.size)
    c.bufferBytes.add(bytes)
    val tc = TaskContext.get()
    val task = if (tc == null) "driver" else s"task:${tc.taskAttemptId()}"
    val qid = Option(tc).flatMap(x => Option(x.getLocalProperty(SparkWorkload.QidProperty))).getOrElse("")
    c.spans.add(Span("core.merge", s"merge:$task:$t0", task, qid, Clock.epochUs(t0), Clock.epochUs(t1),
      Map("bins_in" -> binsIn.toDouble, "bins_out" -> r.size.toDouble, "buffer_bytes" -> bytes.toDouble)))
    r
  }

  override def finish(b: B): SketchResultRow = {
    val t0 = System.nanoTime()
    val r = inner.finish(b)
    c.finishNs.add(System.nanoTime() - t0)
    c.finishCalls.add(1)
    r
  }
  override def bufferEncoder: Encoder[B] = inner.bufferEncoder
  override def outputEncoder: Encoder[SketchResultRow] = inner.outputEncoder
}

object TracedAgg {
  /** Bytes of the Java serialization of `o`. */
  def serializedSize(o: AnyRef): Long = {
    var n = 0L
    val sink = new OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new ObjectOutputStream(sink)
    out.writeObject(o)
    out.close()
    n
  }
}
