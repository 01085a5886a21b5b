package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.sampling.PrioritySampling
import repro.spark.DisaggregatedSketch

/** Table T5 (paper figure 6): 1-way and 2-way marginal counts on an
  * ad-impression log. The unit of analysis is the full 9-feature tuple (the
  * data is disaggregated: one row per impression); a marginal query fixes one
  * or two feature values and sums over all matching tuples — exactly a
  * disaggregated subset sum with a structured filter.
  *
  * The paper uses the Criteo Kaggle display-advertising sample (45M rows);
  * we substitute the synthetic `SynthData.criteoLike` log (DESIGN.md §5).
  * USS runs as the Spark aggregate over the raw rows; priority sampling runs
  * over the exact pre-aggregated tuple counts. Paper claims: relative error
  * falls with marginal size (<5 % around 0.2–0.4 % of the data, <0.5 % above
  * half the data) and USS "performs similarly to priority sampling".
  */
object E5Criteo {

  final case class BucketRow(bucket: String, marginals: Int, meanFrac: Double,
                             ussRrmse: Double, priorityRrmse: Double)

  final case class Report(rows: Vector[BucketRow], table: String)

  private val Sep = ";"

  /** All 1-way marginal predicates (featureIdx, value) plus the 2-way
    * marginals over the feature pairs (c1, c2) and (c4, c7), with their true
    * fractions.
    */
  def run(spark: SparkSession, sf: Double = 0.02, m: Int = 4096, seeds: Int = 3,
          minFrac: Double = 5e-4, seed: Long = 103): Report = {
    val df = SynthData.criteoLike(spark, sf, seed).cache()
    val nRows = df.count().toDouble
    val item = concat_ws(Sep, (1 to 9).map(i => col(s"c$i")): _*)

    // Exact pre-aggregation (the expensive step the sketch avoids).
    val pairs = DisaggregatedSketch.exactPairs(df, item, lit(1.0))

    // True marginal totals, computed from the exact aggregation.
    def marginalTruths(feats: Seq[Int]): Map[Seq[String], Double] = {
      val acc = scala.collection.mutable.HashMap.empty[Seq[String], Double]
      pairs.foreach { case (it, w) =>
        val f = it.split(Sep, -1)
        val key = feats.map(f(_)).toVector
        acc.updateWith(key) { case Some(x) => Some(x + w); case None => Some(w) }
      }
      acc.toMap
    }

    // (query name, feature positions, values, truth)
    val queries: Vector[(Seq[Int], Seq[String], Double)] = {
      val oneWay = (0 until 9).flatMap { j =>
        marginalTruths(Seq(j)).collect { case (vs, t) if t / nRows >= minFrac => (Seq(j), vs, t) }
      }
      val twoWay = Seq((0, 1), (3, 6)).flatMap { case (a, b) =>
        marginalTruths(Seq(a, b)).collect { case (vs, t) if t / nRows >= minFrac => (Seq(a, b), vs, t) }
      }
      (oneWay ++ twoWay).toVector
    }

    def pred(feats: Seq[Int], vals: Seq[String])(it: String): Boolean = {
      val f = it.split(Sep, -1)
      feats.indices.forall(i => f(feats(i)) == vals(i))
    }

    // errors(query) += squared relative error per seed per method
    val sqErrUss = new Array[Double](queries.size)
    val sqErrPri = new Array[Double](queries.size)
    for (s <- 0 until seeds) {
      val uss = DisaggregatedSketch.sketch(df, item, lit(1.0), m, seed * 313 + s)
      val pri = PrioritySampling.sample(pairs, m, seed * 317 + s)
      queries.zipWithIndex.foreach { case ((feats, vals, truth), qi) =>
        val p = pred(feats, vals) _
        val eu = uss.subsetSum(p).value
        val ep = pri.subsetSum(p).value
        sqErrUss(qi) += math.pow((eu - truth) / truth, 2)
        sqErrPri(qi) += math.pow((ep - truth) / truth, 2)
      }
    }

    val edges = Vector(minFrac, 5e-3, 5e-2, 0.25, 0.5, 1.01)
    val rows = edges.zip(edges.tail).flatMap { case (lo, hi) =>
      val qs = queries.zipWithIndex.filter { case ((_, _, t), _) => t / nRows >= lo && t / nRows < hi }
      if (qs.isEmpty) None
      else Some(BucketRow(
        f"[$lo%.4f,${math.min(hi, 1.0)}%.4f)",
        qs.size,
        Exp.mean(qs.map(_._1._3 / nRows)),
        math.sqrt(Exp.mean(qs.map(q => sqErrUss(q._2) / seeds))),
        math.sqrt(Exp.mean(qs.map(q => sqErrPri(q._2) / seeds)))))
    }

    df.unpersist()
    val table = Tab.render(
      s"T5 / fig.6 — Criteo-like 1-/2-way marginals (rows=${nRows.toLong} distinct=${pairs.size} m=$m seeds=$seeds)",
      Seq("marginal frac bucket", "#marginals", "mean frac", "USS RRMSE", "priority RRMSE"),
      rows.map(r => Seq(r.bucket, r.marginals, r.meanFrac, r.ussRrmse, r.priorityRrmse)))
    Report(rows, table)
  }
}
