package repro.exp

import repro.core.UnbiasedSpaceSaving
import repro.data.Streams
import repro.sampling.HtSample

/** Shared utilities for the table-reproduction harnesses. */
object Exp {

  /** Relative root mean squared error √MSE / truth — the paper's headline
    * metric (§7: "RRMSE is defined as √MSE/n_S").
    */
  def rrmse(estimates: Seq[Double], truth: Double): Double = {
    require(truth != 0, "RRMSE undefined for zero truth")
    math.sqrt(estimates.iterator.map(e => (e - truth) * (e - truth)).sum / estimates.size) / math.abs(truth)
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  def stddev(xs: Seq[Double]): Double = {
    val m = mean(xs)
    math.sqrt(xs.iterator.map(x => (x - m) * (x - m)).sum / (xs.size - 1))
  }

  /** Weibull shape of the item counts in tables T3, T4, T6, T7 and T9. */
  val Shape = 0.3

  /** Discretized-Weibull counts rescaled so the stream total is close to
    * `targetTotal` — keeps totals comparable across skew (shape) settings.
    */
  def scaledWeibullCounts(nItems: Int, shape: Double, targetTotal: Long): Array[Long] = {
    val base = Streams.weibullCounts(nItems, shape, scale = 1.0)
    // Counts are ~linear in scale (up to rounding and the ≥1 clamp).
    val factor = targetTotal.toDouble / base.sum
    val scaled = Streams.weibullCounts(nItems, shape, scale = factor)
    scaled
  }

  /** True subset sum over item ids. */
  def subsetTruth(counts: Array[Long], subset: Set[Int]): Double =
    subset.iterator.map(counts(_).toDouble).sum

  /** `rows` sorted by `key` and cut into three slices of n/3 rows each, the
    * last taking the remainder: the subset-size terciles of tables T2–T4.
    */
  def terciles[A](rows: Seq[A])(key: A => Double): Vector[Seq[A]] = {
    val sorted = rows.sortBy(key)
    val n = sorted.size / 3
    Vector(sorted.take(n), sorted.slice(n, 2 * n), sorted.drop(2 * n))
  }

  /** USS against a Horvitz-Thompson comparator (tables T3 and T4). Rep r
    * permutes `counts` into a stream with seed `seeds._1 + r`, feeds it to USS
    * (m bins, seed `seeds._2 + r`) and to `comparator(stream, r)`. Returns per
    * truth tercile of `subsets` (mean truth/total, USS RRMSE, comparator
    * RRMSE), then the mean USS and comparator RRMSE over all subsets.
    */
  def ussVersus(counts: Array[Long], m: Int, subsets: Seq[Set[Int]], reps: Int, seeds: (Long, Long))
               (comparator: (Array[Int], Int) => HtSample[Int]): (Vector[(Double, Double, Double)], Double, Double) = {
    val total = counts.sum.toDouble
    val truths = subsets.map(subsetTruth(counts, _))
    val perRep = parReps(reps) { r =>
      val stream = Streams.expand(counts, Streams.Order.Permuted, seeds._1 + r)
      val uss = UnbiasedSpaceSaving[Int](m, seeds._2 + r)
      uss.updateAll(stream)
      val us = uss.summary
      val other = comparator(stream, r)
      subsets.map(sub => (us.subsetSumOf(sub).value, other.subsetSumOf(sub).value))
    }
    val perSubset = subsets.indices.map { j =>
      (truths(j), rrmse(perRep.map(_(j)._1), truths(j)), rrmse(perRep.map(_(j)._2), truths(j)))
    }
    val rows = terciles(perSubset)(_._1).map(s => (mean(s.map(_._1 / total)), mean(s.map(_._2)), mean(s.map(_._3))))
    (rows, mean(perSubset.map(_._2)), mean(perSubset.map(_._3)))
  }

  /** Run `reps` independent replicates in parallel; the results come back in
    * rep order, as the ordered parallel stream collects them.
    */
  def parReps[A](reps: Int)(body: Int => A): Vector[A] =
    java.util.stream.IntStream.range(0, reps).parallel().mapToObj[A](body(_)).toArray.toVector.map(_.asInstanceOf[A])
}

/** Minimal fixed-width text-table renderer for bench/job output. */
object Tab {
  def fmt(x: Any): String = x match {
    case d: Double => if (d == d.floor && math.abs(d) < 1e15 && !d.isInfinite) f"$d%.0f" else f"$d%.4f"
    case other     => other.toString
  }

  def render(title: String, headers: Seq[String], rows: Seq[Seq[Any]]): String = {
    val cells = rows.map(_.map(fmt))
    val widths = headers.indices.map(i => (headers(i).length +: cells.map(_(i).length)).max)
    def line(vals: Seq[String]) =
      vals.zip(widths).map { case (v, w) => v.reverse.padTo(w, ' ').reverse }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (s"== $title ==" +: line(headers) +: sep +: cells.map(line)).mkString("\n")
  }
}
