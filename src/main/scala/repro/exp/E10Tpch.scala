package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.sampling.{BottomK, PrioritySampling}
import repro.spark.DisaggregatedSketch

/** Table T10 (paper §3 workload class, no figure): disaggregated subset sums
  * on the TPC-H-lite schema. The unit of analysis is the *order*; the metric
  * is total ordered quantity; the raw data is `lineitem` with several rows
  * per order — the canonical "per-unit metric only available as an expensive
  * pre-aggregation" setting of §3.
  *
  * Subsets are arbitrary filters over order keys (`o_orderkey % 101 = r`,
  * each ≈1 % of orders). Compared: USS as the Spark aggregate over raw
  * lineitem rows, priority sampling over the exact per-order pre-aggregation,
  * and the streaming bottom-k sketch over raw rows.
  */
object E10Tpch {

  final case class MethodRow(method: String, rrmse: Double, maxRelErr: Double)

  final case class Report(rows: Vector[MethodRow], nOrders: Long, table: String) {
    def apply(method: String): MethodRow = rows.find(_.method == method).get
  }

  def run(spark: SparkSession, sf: Double = 0.1, m: Int = 1024, seeds: Int = 3,
          nFilters: Int = 25, seed: Long = 109): Report = {
    val li = SynthData.lineitem(spark, sf, seed = 0).cache()
    val pairs = DisaggregatedSketch.exactPairs(li, col("l_orderkey"), col("l_quantity"))
    val nOrders = pairs.size.toLong
    val truth: Map[Int, Double] = {
      val acc = new Array[Double](101)
      pairs.foreach { case (k, w) => acc((k.toDouble.toLong % 101).toInt) += w }
      (0 until 101).map(r => r -> acc(r)).toMap
    }
    val filters = (0 until nFilters).toVector

    def relErrs(estimate: Int => Double): Vector[Double] =
      filters.map(r => (estimate(r) - truth(r)) / truth(r))

    val sqErr = scala.collection.mutable.HashMap.empty[String, Vector[Double]].withDefaultValue(Vector())
    for (s <- 0 until seeds) {
      val uss = DisaggregatedSketch.sketch(li, col("l_orderkey"), col("l_quantity"), m, seed * 401 + s)
      val bk = BottomK[String](m, seed * 419 + s)
      li.select(col("l_orderkey").cast("string"), col("l_quantity")).toLocalIterator().forEachRemaining { r =>
        bk.update(r.getString(0), r.getDouble(1))
      }
      def modPred(r: Int)(item: String): Boolean = item.toDouble.toLong % 101 == r
      sqErr("uss") ++= relErrs(r => uss.subsetSum(modPred(r)).value)
      Seq("priority" -> PrioritySampling.sample(pairs, m, seed * 409 + s), "bottom-k" -> bk.result).foreach {
        case (method, ht) => sqErr(method) ++= relErrs(r => ht.subsetSum(modPred(r)).value)
      }
    }

    val rows = Vector("uss", "priority", "bottom-k").map { method =>
      val es = sqErr(method)
      MethodRow(method, math.sqrt(Exp.mean(es.map(e => e * e))), es.map(math.abs).max)
    }
    li.unpersist()
    val table = Tab.render(
      s"T10 / §3 — TPC-H-lite per-order quantity subset sums (sf=$sf orders=$nOrders m=$m, $nFilters mod-101 filters x $seeds seeds)",
      Seq("method", "RRMSE", "max |rel err|"),
      rows.map(r => Seq(r.method, r.rrmse, r.maxRelErr)))
    Report(rows, nOrders, table)
  }
}
