package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * At SF=1.0 `lineitem` has TPC-H SF1's row and key counts. Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Generators are deterministic in (sf, seed) so
  * the DuckDB oracle sees identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  /** TPC-H `lineitem` cut to the columns in use: `l_orderkey` and
    * `l_quantity` (T10's per-order query, §3) and `l_linenumber`. Each column
    * draws from its own `rand` seed, so dropping one leaves the others as
    * they were.
    */
  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame =
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed)     * n(NOrdersPerSf, sf) + 1).cast(LongType) as "l_orderkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)                as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)                as "l_quantity",
    )

  /** Cardinalities of the 9 categorical features of the Criteo-like log. */
  val CriteoCardinalities: Seq[Int] = Seq(3, 10, 25, 50, 120, 300, 700, 1200, 2000)

  private val NCriteoPerSf = 45_000_000L // paper: 45M impressions at "SF 1"

  /** Synthetic stand-in for the Criteo Kaggle ad-impression log (§7 of the
    * Ting 2018 paper; see DESIGN.md §5 for the substitution rationale).
    *
    * One row per impression with 9 categorical features `c1..c9` of varying
    * cardinality and power-law-skewed value frequencies (value index
    * ⌊card·u^γ⌋ with γ = 3 concentrates mass on low indices), plus a `click`
    * flag whose rate depends on the first feature. Deterministic in
    * (sf, seed). SF=1 ≙ the paper's 45M rows; benches use sf ≈ 2e-2.
    */
  def criteoLike(spark: SparkSession, sf: Double = 0.001, seed: Long = 7): DataFrame = {
    val rows = n(NCriteoPerSf, sf)
    val base = spark.range(rows)
    val withFeatures = CriteoCardinalities.zipWithIndex.foldLeft(base.toDF()) {
      case (df, (card, i)) =>
        df.withColumn(s"c${i + 1}",
          concat(lit(s"f${i + 1}_"),
                 floor(pow(rand(seed + i), 3.0) * card).cast(IntegerType)))
    }
    withFeatures.withColumn("click",
      (rand(seed + 100) < when(col("c1") === "f1_0", 0.28).otherwise(0.04)).cast(IntegerType)
    ).drop("id")
  }
}
