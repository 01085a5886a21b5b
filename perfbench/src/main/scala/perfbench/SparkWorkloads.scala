package perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.{Column, DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core.{Rng, SketchSummary}
import repro.spark.{DisaggregatedSketch, ItemWeight, LocalSpark, SketchEntryRow, SketchResultRow, UnbiasedSpaceSavingAgg}

/** One finished Spark task, attributed to the query (job group) that ran it. */
final case class TaskRec(group: String, stageId: Int, taskId: Long, finishMs: Long, runMs: Long, cpuNs: Long,
                         gcMs: Long, deserMs: Long, spillBytes: Long, shuffleWrite: Long, shuffleRead: Long,
                         fetchWaitMs: Long, recordsRead: Long)

/** One completed stage, attributed like its tasks. */
final case class StageRec(group: String, stageId: Int, submittedMs: Long, completedMs: Long, tasks: Int)

/** Collects task and stage metrics per job group. */
final class TaskListener extends SparkListener {
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val jobGroup = new ConcurrentHashMap[Int, String]()
  val tasks = new ConcurrentLinkedQueue[TaskRec]()
  val stages = new ConcurrentLinkedQueue[StageRec]()
  val endedGroups: java.util.Set[String] = ConcurrentHashMap.newKeySet[String]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    jobGroup.put(e.jobId, g)
    e.stageIds.foreach(stageGroup.put(_, g))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobGroup.get(e.jobId)).foreach(endedGroups.add)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Option(e.taskMetrics).foreach { m =>
    tasks.add(TaskRec(stageGroup.getOrDefault(e.stageId, ""), e.stageId, e.taskInfo.taskId, e.taskInfo.finishTime,
      m.executorRunTime, m.executorCpuTime, m.jvmGCTime, m.executorDeserializeTime, m.diskBytesSpilled,
      m.shuffleWriteMetrics.bytesWritten, m.shuffleReadMetrics.totalBytesRead,
      m.shuffleReadMetrics.fetchWaitTime, m.inputMetrics.recordsRead))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val s = e.stageInfo
    stages.add(StageRec(stageGroup.getOrDefault(s.stageId, ""), s.stageId,
      s.submissionTime.getOrElse(0L), s.completionTime.getOrElse(0L), s.numTasks))
  }
}

object SparkWorkload {
  /** Local property naming the query a Spark job belongs to. */
  val QidProperty = "perfbench.qid"

  /** A sketch result (struct or flattened row) as a queryable summary. */
  def toSummary(r: Row, m: Int): SketchSummary[String] = {
    val es = r.getAs[scala.collection.Seq[Row]]("entries")
      .map(e => SketchEntryRow(e.getAs[String]("item"), e.getAs[Double]("count"))).toArray
    SketchResultRow(es, r.getAs[Double]("minCount"), r.getAs[Double]("total")).toSummary(m)
  }

  private def skew(ts: Seq[TaskRec]): Double = {
    val stage = ts.groupBy(_.stageId).values.maxBy(_.map(_.runMs).sum)
    val mean = stage.map(_.runMs).sum.toDouble / stage.size
    if (mean == 0) 1.0 else stage.map(_.runMs).max / mean
  }
}

/** Shared Spark plumbing: the session, job-group tagging, the task listener
  * and the traced aggregator's counters, all read from outside the program.
  */
abstract class SparkWorkload(ctx: Ctx) extends Workload(ctx) {
  import SparkWorkload._

  protected var spark: SparkSession = _
  private val listener = new TaskListener
  private val returnMs = mutable.HashMap.empty[String, Long]

  override def start(): Unit = {
    spark = LocalSpark.session("perfbench")
    spark.sparkContext.setLogLevel("WARN")
    if (ctx.traced) spark.sparkContext.addSparkListener(listener)
  }

  override def stop(): Unit = if (spark != null) spark.stop()

  def env: Seq[(String, String)] = Seq(
    "spark_master" -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "aqe" -> spark.conf.get("spark.sql.adaptive.enabled"),
    "default_parallelism" -> spark.sparkContext.defaultParallelism.toString)

  protected def sketchSeed(qid: String): Long = Rng.scramble(ctx.seed * 31 + qid.hashCode)

  /** Run the Spark calls of query `qid` with `qid` as their job group. */
  protected def asQuery[R](qid: String)(body: => R): R = {
    val sc = spark.sparkContext
    sc.setJobGroup(qid, qid, interruptOnCancel = false)
    sc.setLocalProperty(QidProperty, qid)
    try body
    finally {
      returnMs(qid) = System.currentTimeMillis()
      sc.clearJobGroup()
      sc.setLocalProperty(QidProperty, null)
    }
  }

  /** A sketch aggregate wrapped in the traced aggregator. */
  protected def tracedUdaf(m: Int, seed: Long, c: AggCounters) =
    udaf(new TracedAgg(new UnbiasedSpaceSavingAgg(m, seed), m, c), Encoders.product[ItemWeight])

  /** Layer values of one traced answer from its aggregator counters. The
    * aggregator's `reduce` is one `UnbiasedSpaceSaving.update` and its
    * `merge` one `Merge.pairwiseUnbiased`, so the core layers read the same
    * counters.
    */
  protected def recordAgg(qid: String, c: AggCounters): Unit = {
    val rows = c.reduceCalls.value.toDouble
    val merges = c.mergeCalls.value.toDouble
    val binsIn = c.binsIn.value.toDouble
    Seq(
      "spark.agg.buffers" -> c.buffers.value.toDouble,
      "spark.agg.reduce_calls" -> rows,
      "spark.agg.reduce_busy_s" -> c.reduceNs.value / 1e9,
      "spark.agg.merge_calls" -> merges,
      "spark.agg.merge_busy_s" -> c.mergeNs.value / 1e9,
      "spark.agg.buffer_bytes" -> c.bufferBytes.value / math.max(1.0, merges),
      "spark.agg.finish_calls" -> c.finishCalls.value.toDouble,
      "spark.agg.finish_busy_s" -> c.finishNs.value / 1e9,
      "core.update.rows" -> rows,
      "core.update.busy_s" -> c.reduceNs.value / 1e9,
      "core.update.ns_per_row" -> c.reduceNs.value / math.max(1.0, rows),
      "core.update.miss_frac" -> c.misses.value / math.max(1.0, rows),
      "core.update.replace_frac" -> c.replacements.value.toDouble / math.max(1L, c.fullMisses.value),
      "core.merge.calls" -> merges,
      "core.merge.ms_per_call" -> c.mergeNs.value / 1e6 / math.max(1.0, merges),
      "core.merge.bins_in" -> binsIn / math.max(1.0, merges),
      "core.merge.collapse_frac" -> (binsIn - c.binsOut.value) / math.max(1.0, binsIn),
    ).foreach { case (n, v) => ctx.add(qid, n, v) }
    c.spans.value.asScala.foreach(ctx.trace.spans += _)
  }

  /** Time the conversion of result rows to summaries (`core.summary`). */
  protected def summaries(qid: String, traced: Boolean, rows: Seq[Row], m: Int): Seq[SketchSummary[String]] = {
    val t0 = System.nanoTime()
    val out = rows.map(toSummary(_, m))
    val t1 = System.nanoTime()
    if (traced) {
      ctx.trace.add("core.summary", s"$qid/summaries", s"answer:$qid", qid, t0, t1, Map("calls" -> rows.size.toDouble))
      ctx.add(qid, "core.summary.us_per_call", (t1 - t0) / 1e3 / math.max(1, rows.size))
    }
    out
  }

  /** Wait until the listener has seen every event posted so far: run a
    * one-task job and wait for its end event, which the bus delivers after
    * all earlier events.
    */
  private def drain(): Unit = {
    val g = s"drain-${System.nanoTime()}"
    asQuery(g)(spark.sparkContext.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 60_000_000_000L
    while (!listener.endedGroups.contains(g) && System.nanoTime() < deadline) Thread.sleep(2)
  }

  override def finishTrace(answerQids: Seq[String], exactQids: Seq[String]): Map[String, Double] = {
    drain()
    val byGroup = listener.tasks.asScala.toSeq.groupBy(_.group)
    def med(qids: Seq[String])(f: (String, Seq[TaskRec]) => Double): Double =
      Stats.median(qids.map(q => f(q, byGroup.getOrElse(q, Nil))).toSeq)
    def sum(qids: Seq[String], scale: Double)(f: TaskRec => Long): Double = med(qids)((_, ts) => ts.map(f).sum * scale)
    // The Spark spans of the traced answers: answer → stage → task (→ the
    // aggregator's reduce and merge spans, recorded in the tasks).
    val traced = answerQids.toSet
    listener.stages.asScala.filter(s => traced(s.group)).foreach { s =>
      ctx.trace.spans += Span("spark.stage", s"stage:${s.stageId}", s"answer:${s.group}", s.group,
        s.submittedMs * 1000, s.completedMs * 1000, Map("tasks" -> s.tasks.toDouble))
    }
    answerQids.flatMap(q => byGroup.getOrElse(q, Nil)).foreach { t =>
      ctx.trace.spans += Span("spark.task", s"task:${t.taskId}", s"stage:${t.stageId}", t.group,
        (t.finishMs - t.runMs) * 1000, t.finishMs * 1000,
        Map("cpu_ns" -> t.cpuNs.toDouble, "gc_ms" -> t.gcMs.toDouble, "shuffle_write" -> t.shuffleWrite.toDouble))
    }
    Map(
      "spark.tasks" -> med(answerQids)((_, ts) => ts.size.toDouble),
      "spark.task_run_s" -> sum(answerQids, 1e-3)(_.runMs),
      "spark.task_cpu_s" -> sum(answerQids, 1e-9)(_.cpuNs),
      "spark.gc_s" -> sum(answerQids, 1e-3)(_.gcMs),
      "spark.task_skew" -> med(answerQids)((_, ts) => if (ts.isEmpty) 0.0 else skew(ts)),
      "spark.deser_s" -> sum(answerQids, 1e-3)(_.deserMs),
      "spark.spill_bytes" -> sum(answerQids, 1)(_.spillBytes),
      "spark.shuffle_write_bytes" -> sum(answerQids, 1)(_.shuffleWrite),
      "spark.shuffle_read_bytes" -> sum(answerQids, 1)(_.shuffleRead),
      "spark.shuffle_fetch_wait_s" -> sum(answerQids, 1e-3)(_.fetchWaitMs),
      "spark.input_rows" -> sum(answerQids, 1)(_.recordsRead),
      "api.driver_s" -> med(answerQids)((q, ts) =>
        if (ts.isEmpty) 0.0 else (returnMs(q) - ts.map(_.finishMs).max) / 1e3),
      "exact.task_run_s" -> sum(exactQids, 1e-3)(_.runMs),
      "exact.gc_s" -> sum(exactQids, 1e-3)(_.gcMs),
      "exact.shuffle_write_bytes" -> sum(exactQids, 1)(_.shuffleWrite))
  }
}

/** Exact answers of `spark-lineitem`: total quantity, per-order quantity and
  * the quantity of each `orderkey % 101` residue.
  */
private final case class Truth(total: Double, orders: Map[String, Double], residues: Array[Double])

/** Exact answers of one `spark-groupby` group. */
private final case class GroupTruth(total: Double, items: Map[String, Double], marginal: Double)

/** `spark-lineitem`: the paper's §3 query. One global sketch of per-order
  * quantity over a TPC-H-shaped lineitem table read from parquet on every
  * answer, then the 101 `orderkey % 101` filters of T10. The parquet file has
  * a single row group, so one scan task does nearly all the reading and
  * `reduce`, and only a few partial buffers are merged.
  */
final class SparkLineitem(ctx: Ctx) extends SparkWorkload(ctx) {
  type Answer = SketchSummary[String]
  type Exact = Seq[(String, Double)]

  val Sf = 0.1
  val M = 1024
  val Residues = 101

  private lazy val path = new java.io.File(ctx.outDir, s"work/lineitem-s${ctx.seed}.parquet").getAbsolutePath
  private var rows = 0L

  private lazy val truth: Truth = {
    val pairs = exact("truth")
    val residues = new Array[Double](Residues)
    pairs.foreach { case (k, w) => residues((k.toLong % Residues).toInt) += w }
    Truth(pairs.map(_._2).sum, pairs.toMap, residues)
  }

  def inputRows: Long = rows
  def warmups: Int = 5

  private def input: DataFrame = spark.read.parquet(path)

  def prepare(): Double = {
    val t0 = System.nanoTime()
    SynthData.lineitem(spark, Sf, ctx.seed).repartition(1).write.mode("overwrite").parquet(path)
    val gen = (System.nanoTime() - t0) / 1e9
    rows = input.count()
    gen
  }

  def answer(qid: String, traced: Boolean): SketchSummary[String] = {
    val seed = sketchSeed(qid)
    if (!traced) asQuery(qid)(DisaggregatedSketch.sketch(input, col("l_orderkey"), col("l_quantity"), M, seed))
    else {
      val c = new AggCounters(spark.sparkContext)
      val f = tracedUdaf(M, seed, c)
      val row = asQuery(qid) {
        input.select(col("l_orderkey").cast("string").as("item"), col("l_quantity").cast("double").as("weight"))
          .agg(f(col("item"), col("weight")).as("sketch")).head().getStruct(0)
      }
      recordAgg(qid, c)
      summaries(qid, traced, Seq(row), M).head
    }
  }

  def queries(s: SketchSummary[String], qid: String, traced: Boolean): Unit = {
    val t = truth
    ctx.check.summary(s, t.total, t.orders.size, (i: String) => t.orders.getOrElse(i, 0.0), s"$qid sketch")
    (0 until Residues).foreach { r =>
      val e = ctx.query(qid, traced, "subset")(s.subsetSum(_.toLong % Residues == r))
      ctx.check.estimate(e, t.residues(r), s"$qid orderkey%$Residues=$r")
    }
  }

  def exact(qid: String): Seq[(String, Double)] =
    asQuery(qid)(DisaggregatedSketch.exactPairs(input, col("l_orderkey"), col("l_quantity")))

  def checkExact(e: Seq[(String, Double)], qid: String): Unit = {
    val t = truth
    ctx.check.check(e.size == t.orders.size && math.abs(e.map(_._2).sum - t.total) <= 1e-9 * t.total,
      s"$qid exact pre-aggregation disagrees with itself")
  }
}

/** `spark-groupby`: one sketch per `c8` value (1,200 groups) over the
  * Criteo-like log, cached during set-up; per group a top-10 and the
  * `c1 = 'f1_0'` marginal. Thousands of small partial buffers go through Java
  * serialization, the shuffle and the pairwise merge.
  */
final class SparkGroupby(ctx: Ctx) extends SparkWorkload(ctx) {
  type Answer = Seq[(String, SketchSummary[String])]
  type Exact = Array[Row]

  val Sf = 0.01
  val M = 256
  val TopK = 10
  val Marginal = "f1_0;"

  private var df: DataFrame = _
  private var rows = 0L

  /** The item: every feature but the group feature c8, joined with ';'. */
  private def item: Column = concat_ws(";", (1 to 9).filter(_ != 8).map(i => col(s"c$i")): _*)

  private lazy val truth: Map[String, GroupTruth] =
    exact("truth").groupBy(_.getString(0)).map { case (g, rs) =>
      val items = rs.iterator.map(r => r.getString(1) -> r.getDouble(2)).toMap
      g -> GroupTruth(items.values.sum, items, items.iterator.collect { case (i, w) if i.startsWith(Marginal) => w }.sum)
    }

  def inputRows: Long = rows
  def warmups: Int = 2

  def prepare(): Double = {
    if (df != null) df.unpersist(blocking = true)
    val t0 = System.nanoTime()
    df = SynthData.criteoLike(spark, Sf, ctx.seed).cache()
    rows = df.count()
    (System.nanoTime() - t0) / 1e9
  }

  def answer(qid: String, traced: Boolean): Seq[(String, SketchSummary[String])] = {
    val seed = sketchSeed(qid)
    val out =
      if (!traced) asQuery(qid)(DisaggregatedSketch.sketchByGroup(df, Seq(col("c8")), item, lit(1.0), M, seed).collect())
      else {
        val c = new AggCounters(spark.sparkContext)
        val f = tracedUdaf(M, seed, c)
        val res = asQuery(qid) {
          df.select(col("c8"), item.as("__item"), lit(1.0).as("__weight"))
            .groupBy(col("c8")).agg(f(col("__item"), col("__weight")).as("sketch"))
            .select(col("c8"), col("sketch.entries").as("entries"),
                    col("sketch.minCount").as("minCount"), col("sketch.total").as("total"))
            .collect()
        }
        recordAgg(qid, c)
        res
      }
    out.toSeq.map(_.getString(0)).zip(summaries(qid, traced, out.toSeq, M))
  }

  def queries(a: Seq[(String, SketchSummary[String])], qid: String, traced: Boolean): Unit = {
    val t = truth
    ctx.check.check(a.size == t.size, s"$qid: ${a.size} groups, exact has ${t.size}")
    a.foreach { case (g, s) =>
      val gt = t(g)
      ctx.check.summary(s, gt.total, gt.items.size, (i: String) => gt.items.getOrElse(i, 0.0), s"$qid group $g")
      val top = ctx.query(qid, traced, "topk")(s.topK(TopK))
      ctx.check.topK(s, top, (i: String) => gt.items.getOrElse(i, 0.0), s"$qid group $g top$TopK")
      val e = ctx.query(qid, traced, "subset")(s.subsetSum(_.startsWith(Marginal)))
      ctx.check.estimate(e, gt.marginal, s"$qid group $g marginal")
    }
  }

  def exact(qid: String): Array[Row] = asQuery(qid) {
    df.select(col("c8"), item.as("item"), lit(1.0).as("weight"))
      .groupBy("c8", "item").agg(sum("weight").as("total")).collect()
  }

  def checkExact(e: Array[Row], qid: String): Unit = {
    val t = truth
    ctx.check.check(e.length == t.valuesIterator.map(_.items.size).sum && e.map(_.getDouble(2)).sum == rows,
      s"$qid exact pre-aggregation disagrees with itself")
  }
}
