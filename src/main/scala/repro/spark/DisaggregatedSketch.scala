package repro.spark

import org.apache.spark.sql.{Column, DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.SketchSummary

/** DataFrame-level API for disaggregated subset sum / frequent item
  * sketching.
  *
  * The sketch is exposed as a registered aggregate function (installed into
  * `spark.sessionState.functionRegistry` via `spark.udf.register` — Spark's
  * public extension point for custom aggregates), so it can be used from SQL
  * (`SELECT uss_sketch(item, weight) FROM t [GROUP BY ...]`) as well as from
  * the typed helpers below.
  */
object DisaggregatedSketch {

  private def aggUdf(m: Int, seed: Long) =
    udaf(new UnbiasedSpaceSavingAgg(m, seed), Encoders.product[ItemWeight])

  /** Register the sketch aggregate under `name` in the session's function
    * registry; call sites then use it from SQL.
    */
  def register(spark: SparkSession, name: String, m: Int, seed: Long): Unit =
    spark.udf.register(name, aggUdf(m, seed))

  /** Sketch a whole DataFrame: one Unbiased Space Saving sketch over
    * (`itemCol`, `weightCol`), built per-partition and combined with the
    * unbiased merge. Returns the queryable summary.
    */
  def sketch(df: DataFrame, itemCol: Column, weightCol: Column, m: Int, seed: Long): SketchSummary[String] =
    sketchByGroup(df, Nil, itemCol, weightCol, m, seed).as(Encoders.product[SketchResultRow]).head().toSummary(m)

  /** GROUP BY sketching: one sketch per group. Output columns: the group
    * columns plus `entries`, `minCount`, `total`.
    */
  def sketchByGroup(df: DataFrame, groupCols: Seq[Column], itemCol: Column, weightCol: Column,
                    m: Int, seed: Long): DataFrame = {
    val f = aggUdf(m, seed)
    df.select((groupCols :+ itemCol.cast("string").as("__item") :+ weightCol.cast("double").as("__weight")): _*)
      .groupBy(groupCols: _*)
      .agg(f(col("__item"), col("__weight")).as("sketch"))
      .select((groupCols :+ col("sketch.entries").as("entries")
                         :+ col("sketch.minCount").as("minCount")
                         :+ col("sketch.total").as("total")): _*)
  }

  /** The expensive exact pre-aggregation the sketch avoids (§3): per-item
    * totals. This is the ground-truth path — DuckDB-oracle-checked in tests —
    * and the input that pre-aggregated baselines (priority sampling) consume.
    */
  def exact(df: DataFrame, itemCol: Column, weightCol: Column): DataFrame =
    df.select(itemCol.cast("string").as("item"), weightCol.cast("double").as("weight"))
      .groupBy("item")
      .agg(sum("weight").as("total"))

  /** Collect the exact pre-aggregation as (item, weight) pairs. An item whose
    * weights are all null has a null total (`SUM` skips nulls) and is left
    * out, as the sketch leaves it out.
    */
  def exactPairs(df: DataFrame, itemCol: Column, weightCol: Column): Seq[(String, Double)] =
    exact(df, itemCol, weightCol).where(col("total").isNotNull).collect().iterator
      .map(r => r.getString(0) -> r.getDouble(1)).toVector
}
