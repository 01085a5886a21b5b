package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable

/** Per-run state shared by the runner and a workload: the seed, the
  * correctness checker, query latencies, per-answer layer values and spans.
  */
final class Ctx(val seed: Long, val traced: Boolean, val outDir: File) {
  val check = new Checker
  val trace = new Trace
  /** Latency of every query made on a measured answer, in ns. */
  val queryNs = mutable.ArrayBuffer.empty[Double]
  var measuring = false
  private var queryCount = 0L
  private val layers = mutable.LinkedHashMap.empty[String, mutable.HashMap[String, Double]]

  /** Add `v` to layer metric `name` of the answer `qid`. */
  def add(qid: String, name: String, v: Double): Unit = {
    val m = layers.getOrElseUpdate(qid, mutable.HashMap.empty)
    m(name) = m.getOrElse(name, 0.0) + v
  }

  def layerValues(qid: String): collection.Map[String, Double] = layers.getOrElse(qid, Map.empty)

  /** Time one query on a built summary; spans are kept for traced answers. */
  def query[R](qid: String, traced: Boolean, name: String)(body: => R): R = {
    val t0 = System.nanoTime()
    val r = body
    val t1 = System.nanoTime()
    queryCount += 1
    if (measuring) queryNs += (t1 - t0).toDouble
    if (traced) {
      trace.add(s"core.query.$name", s"q$queryCount", s"answer:$qid", qid, t0, t1)
      add(qid, "core.query.calls", 1)
    }
    r
  }
}

/** A benchmark workload. The runner calls `start` once, `prepare` several
  * times (the median counts towards `setup_s`), then answers, queries and the
  * exact yardstick back to back: a closed loop with one client.
  */
abstract class Workload(val ctx: Ctx) {
  /** The queryable summaries one answer builds. */
  type Answer
  /** The exact yardstick's result. */
  type Exact
  /** Rows of input consumed by one answer. */
  def inputRows: Long
  /** Answers run before timing starts (JIT and Spark warm-up). */
  def warmups: Int
  /** One-time start, such as the Spark session. */
  def start(): Unit = ()
  /** Make the inputs from the seed; returns seconds spent in the data layer. */
  def prepare(): Double
  /** Build the queryable summaries from the inputs; returns a handle to them. */
  def answer(qid: String, traced: Boolean): Answer
  /** Answer and check every query of one answer. */
  def queries(a: Answer, qid: String, traced: Boolean): Unit
  /** The exact pre-aggregation the sketch replaces, on the same input. */
  def exact(qid: String): Exact
  /** Check the exact result (outside the timed region). */
  def checkExact(e: Exact, qid: String): Unit
  /** Called after the loop in a traced run, to fill layer values the
    * workload collects asynchronously (Spark listener events).
    */
  def finishTrace(answerQids: Seq[String], exactQids: Seq[String]): Map[String, Double] = Map.empty
  def env: Seq[(String, String)]
  def stop(): Unit = ()
}

object Main {
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "answer_s" -> "s", "rows_per_s" -> "1/s", "exact_s" -> "s",
    "query_us" -> "us", "heap_retained_mb" -> "MB")

  val PerLayer: Seq[(String, String)] = Seq(
    "core.update.rows" -> "count", "core.update.busy_s" -> "s", "core.update.ns_per_row" -> "ns",
    "core.update.miss_frac" -> "frac", "core.update.replace_frac" -> "frac",
    "core.merge.calls" -> "count", "core.merge.ms_per_call" -> "ms", "core.merge.bins_in" -> "count",
    "core.merge.collapse_frac" -> "frac",
    "spark.agg.buffers" -> "count", "spark.agg.reduce_calls" -> "count", "spark.agg.reduce_busy_s" -> "s",
    "spark.agg.merge_calls" -> "count", "spark.agg.merge_busy_s" -> "s", "spark.agg.buffer_bytes" -> "B",
    "spark.agg.finish_calls" -> "count", "spark.agg.finish_busy_s" -> "s",
    "spark.tasks" -> "count", "spark.task_run_s" -> "s", "spark.task_cpu_s" -> "s", "spark.gc_s" -> "s",
    "spark.task_skew" -> "ratio", "spark.deser_s" -> "s", "spark.spill_bytes" -> "B",
    "spark.shuffle_write_bytes" -> "B", "spark.shuffle_read_bytes" -> "B", "spark.shuffle_fetch_wait_s" -> "s",
    "spark.input_rows" -> "count", "api.driver_s" -> "s",
    "core.summary.us_per_call" -> "us", "core.query.calls" -> "count", "core.query.us_tail" -> "us",
    "exact.task_run_s" -> "s", "exact.gc_s" -> "s", "exact.shuffle_write_bytes" -> "B",
    "answer.tail_s" -> "s", "data.gen_s" -> "s", "trace.overhead_frac" -> "frac")

  /** Input preparations per run; set-up reports their median. */
  val PrepReps = 3
  /** Fewest measured answers per run, even past `--seconds`. */
  val MinAnswers = 4

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", "")
    val seed = opts.get("seed").map(_.toLong).getOrElse(1L)
    val seconds = opts.get("seconds").map(_.toDouble).getOrElse(10.0)
    val traced = opts.get("trace").contains("1")
    val outDir = new File(opts.getOrElse("out", "perfbench/out"))
    outDir.mkdirs()
    val ctx = new Ctx(seed, traced, outDir)
    val w: Workload = workload match {
      case "stream-ingest"  => new StreamIngest(ctx)
      case "spark-lineitem" => new SparkLineitem(ctx)
      case "spark-groupby"  => new SparkGroupby(ctx)
      case other =>
        Console.err.println(s"unknown workload '$other' (stream-ingest, spark-lineitem, spark-groupby)")
        sys.exit(2)
    }
    val code =
      try run(w, ctx, workload, seconds)
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally w.stop()
    sys.exit(code)
  }

  def run(w: Workload, ctx: Ctx, workload: String, seconds: Double): Int = {
    val traced = ctx.traced
    val selfTestOk = SelfTest.run()
    println(s"selftest: corrupted summaries ${if (selfTestOk) "caught" else "NOT caught"}")

    val t0 = System.nanoTime()
    w.start()
    val startS = secs(t0)
    val preps = (1 to PrepReps).map { _ => val t = System.nanoTime(); val gen = w.prepare(); (secs(t), gen) }
    val tw = System.nanoTime()
    (1 to w.warmups).foreach { i =>
      val qid = s"warm$i"
      w.queries(w.answer(qid, traced = false), qid, traced = false)
      w.checkExact(w.exact(s"warm$i-exact"), s"warm$i-exact")
    }
    val warmS = secs(tw)
    val setupS = startS + Stats.median(preps.map(_._1)) + warmS

    // Measured loop. In a traced run every other answer is traced, so the
    // untraced ones give the tracing overhead from the same process.
    ctx.measuring = true
    val answerS, tracedAnswerS, exactS = mutable.ArrayBuffer.empty[Double]
    val answerQids, exactQids = mutable.ArrayBuffer.empty[String]
    val queryUsByAnswer = mutable.ArrayBuffer.empty[Double]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < deadline || i < MinAnswers) {
      val tr = traced && i % 2 == 1
      val qid = s"a$i"
      // A full collection outside the timed region, so that every answer
      // starts from the same heap state.
      System.gc()
      val ta = System.nanoTime()
      val a = w.answer(qid, tr)
      val tb = System.nanoTime()
      val dt = (tb - ta) / 1e9
      if (tr) {
        tracedAnswerS += dt
        answerQids += qid
        ctx.trace.add("answer", s"answer:$qid", "", qid, ta, tb)
      } else answerS += dt
      val q0 = ctx.queryNs.size
      w.queries(a, qid, tr)
      queryUsByAnswer += ctx.queryNs.drop(q0).sum / (ctx.queryNs.size - q0) / 1e3
      val te = System.nanoTime()
      val e = w.exact(s"e$i")
      exactS += secs(te)
      w.checkExact(e, s"e$i")
      exactQids += s"e$i"
      i += 1
    }
    ctx.measuring = false
    val heapMb = retainedHeapMb()

    val answer = Stats.median(answerS.toSeq)
    val e2e: Map[String, Double] = Map(
      "setup_s" -> setupS,
      "answer_s" -> answer,
      "rows_per_s" -> w.inputRows / answer,
      "exact_s" -> Stats.median(exactS.toSeq),
      "query_us" -> ctx.queryNs.sum / ctx.queryNs.size / 1e3,
      "heap_retained_mb" -> heapMb)

    val (qp, qTail, qn) = Stats.tail(ctx.queryNs.toSeq)
    val (ap, aTail, an) = Stats.tail(answerS.toSeq)
    val layers: Map[String, Double] =
      if (!traced) Map.empty
      else {
        val async = w.finishTrace(answerQids.toSeq, exactQids.toSeq)
        val perAnswer = PerLayer.map(_._1).flatMap { n =>
          val vs = answerQids.toSeq.flatMap(q => ctx.layerValues(q).get(n))
          if (vs.isEmpty) None else Some(n -> Stats.median(vs))
        }.toMap
        val derived = Map(
          "core.query.us_tail" -> qTail / 1e3,
          "answer.tail_s" -> aTail,
          "data.gen_s" -> Stats.median(preps.map(_._2)),
          "trace.overhead_frac" -> (Stats.median(tracedAnswerS.toSeq) / answer - 1))
        // A layer that does not run on this workload reports 0.
        PerLayer.map { case (n, _) => n -> 0.0 }.toMap ++ perAnswer ++ async ++ derived
      }

    val ok = selfTestOk && ctx.check.passed
    val failedFrac = ctx.check.failed.toDouble / math.max(1, ctx.check.attempted)
    val envFields = Seq(
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jdk" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "spark_version" -> org.apache.spark.SPARK_VERSION,
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString) ++ w.env
    println(s"workload=$workload seed=${ctx.seed} seconds=$seconds trace=${if (traced) 1 else 0}")
    println("env " + envFields.map { case (k, v) => s"$k=$v" }.mkString(" "))
    println(f"answers measured=${answerS.size} traced=${tracedAnswerS.size} exact=${exactS.size} " +
            f"queries=${ctx.queryNs.size} answer_s p$ap%.0f=$aTail%.4f (n=$an) query_us p$qp%.1f=${qTail / 1e3}%.2f (n=$qn)")
    println(f"setup start=$startS%.3fs prepare=${preps.map(p => f"${p._1}%.3f").mkString("/")}s warm-up=$warmS%.3fs (${w.warmups} answers)")
    EndToEnd.foreach { case (n, u) => println(f"metric $n%-18s ${e2e(n)}%.6g $u") }
    println(f"metric failed_frac        $failedFrac%.6g frac (${ctx.check.failed} of ${ctx.check.attempted} answers; " +
            s"${ctx.check.exactFailures} exact-check failures, ${ctx.check.estimateMisses} of ${ctx.check.estimates} " +
            s"estimates outside ${ctx.check.Sds} sd)")
    if (traced) PerLayer.foreach { case (n, u) => println(f"layer  $n%-28s ${layers(n)}%.6g $u") }
    ctx.check.firstFailures.foreach(f => println(s"FAILED $f"))

    val tag = s"$workload-s${ctx.seed}-t${if (traced) 1 else 0}"
    if (traced) ctx.trace.write(new File(ctx.outDir, s"trace-$tag.jsonl"))
    val units = (EndToEnd ++ PerLayer).toMap
    val reported = if (traced) PerLayer.map(_._1) else EndToEnd.map(_._1)
    val values = e2e ++ layers
    val metricsJson = Json.obj(reported.map(n =>
      n -> Json.obj(Seq("value" -> Json.num(values(n)), "unit" -> Json.str(units(n))))))
    val detail = Json.obj(Seq(
      "env" -> Json.obj(envFields.map { case (k, v) => k -> Json.str(v) }),
      "all_metrics" -> Json.obj(values.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) }),
      "failed_frac" -> Json.num(failedFrac),
      "answers_attempted" -> Json.num(ctx.check.attempted.toDouble),
      "answers_failed" -> Json.num(ctx.check.failed.toDouble),
      "estimates" -> Json.num(ctx.check.estimates.toDouble),
      "estimates_outside_6sd" -> Json.num(ctx.check.estimateMisses.toDouble),
      "first_failures" -> ctx.check.firstFailures.map(Json.str).mkString("[", ",", "]"),
      "self_test_caught_corruption" -> selfTestOk.toString,
      "answer_samples" -> Json.num(answerS.size.toDouble),
      "answer_s_all" -> answerS.map(Json.num).mkString("[", ",", "]"),
      "exact_s_all" -> exactS.map(Json.num).mkString("[", ",", "]"),
      "query_us_by_answer" -> queryUsByAnswer.map(Json.num).mkString("[", ",", "]"),
      "query_samples" -> Json.num(ctx.queryNs.size.toDouble),
      "query_tail_percentile" -> Json.num(qp),
      "answer_tail_percentile" -> Json.num(ap)))
    val pw = new java.io.PrintWriter(new File(ctx.outDir, s"result-$tag.json"), "UTF-8")
    try pw.println(detail) finally pw.close()

    println(Json.obj(Seq(
      "correct" -> ok.toString,
      "attempted" -> ctx.check.attempted.toString,
      "failed" -> ctx.check.failed.toString,
      "metrics" -> metricsJson)))
    0
  }

  /** Heap still in use after full collections, in MiB. */
  private def retainedHeapMb(): Double = {
    val mx = ManagementFactory.getMemoryMXBean
    (1 to 2).foreach(_ => mx.gc())
    mx.getHeapMemoryUsage.getUsed / 1048576.0
  }
}
