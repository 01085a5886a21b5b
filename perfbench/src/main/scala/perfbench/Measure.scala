package perfbench

import scala.collection.mutable.ArrayBuffer
import repro.core.{Estimate, SketchSummary}

/** Order statistics over timing samples. */
object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  /** The highest of a few standard percentiles that still has at least ten
    * samples beyond it, as (percentile, value, sample count). With fewer than
    * twenty samples that is the maximum, reported as percentile 100.
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val n = xs.size
    Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0).find(p => n * (1 - p / 100) >= 10) match {
      case Some(p) => (p, quantile(xs, p / 100), n)
      case None    => (100.0, xs.max, n)
    }
  }
}

/** One traced interval. Per-row layers record one span per shard or task with
  * `count` rows and `busyNs` summed over the calls; everything else records
  * one span per call. Times are microseconds since the epoch.
  */
final case class Span(name: String, id: String, parent: String, qid: String,
                      startUs: Long, endUs: Long, attrs: Map[String, Double] = Map.empty) {
  def json: String = {
    val a = attrs.map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
    s"""{"name":"$name","id":"$id","parent":"$parent","qid":"$qid","start_us":$startUs,"end_us":$endUs,"attrs":{$a}}"""
  }
}

/** Converts `System.nanoTime` readings to epoch microseconds, so spans made
  * in Spark tasks and on the driver share one clock (local mode: one JVM).
  */
object Clock {
  private val t0Nano = System.nanoTime()
  private val t0Us = System.currentTimeMillis() * 1000
  def epochUs(nano: Long): Long = t0Us + (nano - t0Nano) / 1000
}

/** In-memory span store, written out once when the run ends. */
final class Trace {
  val spans = ArrayBuffer.empty[Span]

  def add(name: String, id: String, parent: String, qid: String, startNano: Long, endNano: Long,
          attrs: Map[String, Double] = Map.empty): Unit =
    spans += Span(name, id, parent, qid, Clock.epochUs(startNano), Clock.epochUs(endNano), attrs)

  def write(file: java.io.File): Unit = {
    val w = new java.io.PrintWriter(file, "UTF-8")
    try spans.foreach(s => w.println(s.json)) finally w.close()
  }
}

object Json {
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def str(s: String): String = "\"" + s.flatMap {
    case '"'  => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  } + "\""

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}

/** Correctness checks on sketch answers, counted against answers attempted.
  *
  *  - a summary's `total` equals the exact total, and its bin counts sum to
  *    that total (stream updates and the pairwise merge both conserve mass);
  *  - a summary that never filled (N̂_min = 0) equals the exact per-item result;
  *  - a subset-sum estimate lies within `Sds` eq.-5 standard deviations of
  *    the exact answer.
  *
  * Every check is one answer; a check that throws counts as failed.
  *
  * The first two checks are exact. The third is statistical: eq. 5 is a
  * plug-in estimate, and when a subset matches only one or two bins (C_S
  * small) the estimated sd is far below the true one, so a correct sketch
  * still misses now and then (T7 shows the same undercoverage). Those misses
  * count as failed answers; the run is judged incorrect only if an exact
  * check fails or the misses exceed `MissAllowance` of the estimates.
  */
final class Checker {
  val Sds = 6.0
  val MissAllowance = 0.01
  var attempted = 0L
  var failed = 0L
  var estimates = 0L
  var estimateMisses = 0L
  val firstFailures = ArrayBuffer.empty[String]

  def exactFailures: Long = failed - estimateMisses

  /** No exact check failed and estimate misses stay within the allowance. */
  def passed: Boolean = exactFailures == 0 && estimateMisses <= MissAllowance * estimates

  private def near(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  private def record(what: => String)(ok: => Boolean): Boolean = {
    attempted += 1
    val (pass, why) = try (ok, "") catch { case e: Exception => (false, s" threw $e") }
    if (!pass) {
      failed += 1
      if (firstFailures.size < 5) firstFailures += what + why
    }
    pass
  }

  /** Structural check of one summary against the exact per-item counts. */
  def summary[T](s: SketchSummary[T], exactTotal: Double, exactDistinct: Int, exact: T => Double,
                 label: => String): Boolean =
    record(s"$label: summary total=${s.total} mass=${s.entries.map(_.count).sum} " +
           s"minCount=${s.minCount} vs exact total=$exactTotal") {
      near(s.total, exactTotal) &&
      near(s.entries.iterator.map(_.count).sum, s.total) &&
      (s.minCount > 0 || (s.size == exactDistinct && s.entries.forall(e => near(e.count, exact(e.item)))))
    }

  /** A subset-sum estimate against its exact value. */
  def estimate(e: Estimate, truth: Double, label: => String): Boolean =
    statistical(record(s"$label: estimate ${e.value} sd ${e.stddev} vs exact $truth") {
      if (e.variance == 0) near(e.value, truth) else math.abs(e.value - truth) <= Sds * e.stddev
    })

  /** A top-k answer: each reported item's count is a one-item subset sum. */
  def topK[T](s: SketchSummary[T], top: Seq[repro.core.Entry[T]], exact: T => Double, label: => String): Boolean =
    statistical(record(s"$label: top-k") {
      top.forall { e =>
        val sd = s.minCount
        if (sd == 0) near(e.count, exact(e.item)) else math.abs(e.count - exact(e.item)) <= Sds * sd
      }
    })

  private def statistical(pass: Boolean): Boolean = {
    estimates += 1
    if (!pass) estimateMisses += 1
    pass
  }

  /** A check outside the sketch (the exact yardstick agreeing with itself). */
  def check(ok: => Boolean, label: => String): Boolean = record(label)(ok)
}
