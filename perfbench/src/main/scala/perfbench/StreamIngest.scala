package perfbench

import repro.core.{Merge, Rng, SketchSummary, UnbiasedSpaceSaving}
import repro.data.Streams
import repro.exp.Exp

/** `stream-ingest`: the core module alone, no Spark. One thread builds
  * `Shards` Unbiased Space Saving sketches over consecutive slices of a
  * permuted discretized-Weibull stream, merges them with the pairwise
  * unbiased merge and answers random subset-sum queries plus a top-k. The
  * yardstick is an exact `java.util.HashMap` count of the same stream.
  * Nearly all of an answer's time is `UnbiasedSpaceSaving.update`.
  */
final class StreamIngest(ctx: Ctx) extends Workload(ctx) {
  type Answer = SketchSummary[Int]
  type Exact = java.util.HashMap[Integer, Array[Long]]

  val Items = 100000
  val Shape = 0.3
  val Rows = 8000000L
  val Shards = 16
  val M = 4096
  val Queries = 1000
  val QuerySize = 1000
  val TopK = 100

  private var counts: Array[Long] = _
  private var stream: Array[Int] = _
  private var subsets: Array[Set[Int]] = _
  private var truths: Array[Double] = _

  def inputRows: Long = stream.length.toLong
  def warmups: Int = 3
  def env: Seq[(String, String)] = Seq("spark_master" -> "none (core only)")

  def prepare(): Double = {
    stream = null
    val t0 = System.nanoTime()
    counts = Exp.scaledWeibullCounts(Items, Shape, Rows)
    stream = Streams.expand(counts, Streams.Order.Permuted, ctx.seed)
    val gen = (System.nanoTime() - t0) / 1e9
    // Random item subsets by a partial Fisher-Yates shuffle per query.
    val rng = new java.util.SplittableRandom(Rng.scramble(ctx.seed + 1))
    val ids = Array.range(0, Items)
    subsets = Array.fill(Queries) {
      (0 until QuerySize).foreach { j =>
        val r = j + rng.nextInt(Items - j)
        val t = ids(j); ids(j) = ids(r); ids(r) = t
      }
      ids.iterator.take(QuerySize).toSet
    }
    truths = subsets.map(_.iterator.map(counts(_).toDouble).sum)
    gen
  }

  def answer(qid: String, traced: Boolean): SketchSummary[Int] = {
    val base = Rng.scramble(ctx.seed * 31 + qid.hashCode)
    val shards = Array.tabulate(Shards)(k => UnbiasedSpaceSaving[Int](M, base + k))
    val n = stream.length
    var misses, fullMisses, replacements = 0L
    var k = 0
    while (k < Shards) {
      val s = shards(k)
      val lo = (n.toLong * k / Shards).toInt
      val hi = (n.toLong * (k + 1) / Shards).toInt
      var j = lo
      if (!traced) {
        while (j < hi) { s.update(stream(j)); j += 1 }
      } else {
        // Probe membership around each update (outside its timed call) to
        // count misses and label replacements.
        val ts = System.nanoTime()
        var busy = 0L
        while (j < hi) {
          val x = stream(j)
          val miss = !s.contains(x)
          val full = s.size == M
          val t0 = System.nanoTime()
          s.update(x)
          busy += System.nanoTime() - t0
          if (miss) {
            misses += 1
            if (full) { fullMisses += 1; if (s.contains(x)) replacements += 1 }
          }
          j += 1
        }
        ctx.trace.add("core.update", s"$qid/shard$k", s"answer:$qid", qid, ts, System.nanoTime(),
          Map("rows" -> (hi - lo).toDouble, "busy_ns" -> busy.toDouble))
        ctx.add(qid, "core.update.rows", (hi - lo).toDouble)
        ctx.add(qid, "core.update.busy_s", busy / 1e9)
      }
      k += 1
    }
    val ts = System.nanoTime()
    val parts = shards.toSeq.map(_.summary)
    val tm = System.nanoTime()
    val merged = Merge.pairwiseUnbiased(M, base + Shards, parts)
    val tf = System.nanoTime()
    val result = merged.summary
    val te = System.nanoTime()
    if (traced) {
      val binsIn = parts.map(_.size).sum.toDouble
      ctx.trace.add("core.summary", s"$qid/summaries", s"answer:$qid", qid, ts, tm, Map("calls" -> Shards.toDouble))
      ctx.trace.add("core.merge", s"$qid/merge", s"answer:$qid", qid, tm, tf,
        Map("bins_in" -> binsIn, "bins_out" -> result.size.toDouble))
      ctx.trace.add("core.summary", s"$qid/summary", s"answer:$qid", qid, tf, te, Map("calls" -> 1.0))
      val rows = ctx.layerValues(qid)("core.update.rows")
      ctx.add(qid, "core.update.ns_per_row", ctx.layerValues(qid)("core.update.busy_s") * 1e9 / rows)
      ctx.add(qid, "core.update.miss_frac", misses / rows)
      ctx.add(qid, "core.update.replace_frac", replacements.toDouble / math.max(1, fullMisses))
      ctx.add(qid, "core.merge.calls", 1)
      ctx.add(qid, "core.merge.ms_per_call", (tf - tm) / 1e6)
      ctx.add(qid, "core.merge.bins_in", binsIn)
      ctx.add(qid, "core.merge.collapse_frac", (binsIn - result.size) / binsIn)
      ctx.add(qid, "core.summary.us_per_call", ((tm - ts) + (te - tf)) / 1e3 / (Shards + 1))
    }
    result
  }

  def queries(s: SketchSummary[Int], qid: String, traced: Boolean): Unit = {
    val exact = (i: Int) => counts(i).toDouble
    ctx.check.summary(s, stream.length.toDouble, Items, exact, s"$qid merged")
    var q = 0
    while (q < Queries) {
      val set = subsets(q)
      val e = ctx.query(qid, traced, "subset")(s.subsetSumOf(set))
      ctx.check.estimate(e, truths(q), s"$qid subset $q")
      q += 1
    }
    val top = ctx.query(qid, traced, "topk")(s.topK(TopK))
    ctx.check.topK(s, top, exact, s"$qid top$TopK")
  }

  def exact(qid: String): java.util.HashMap[Integer, Array[Long]] = {
    val h = new java.util.HashMap[Integer, Array[Long]]()
    var j = 0
    while (j < stream.length) {
      val c = h.get(stream(j))
      if (c == null) h.put(stream(j), Array(1L)) else c(0) += 1
      j += 1
    }
    h
  }

  def checkExact(h: java.util.HashMap[Integer, Array[Long]], qid: String): Unit =
    ctx.check.check(h.size == Items && (0 until Items).forall(i => h.get(i)(0) == counts(i)),
      s"$qid exact count disagrees with the generated counts")
}
