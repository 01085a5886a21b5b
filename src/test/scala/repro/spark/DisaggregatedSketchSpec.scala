package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.{Oracle, SparkSpec, SynthData, TestUtil}

class DisaggregatedSketchSpec extends SparkSpec {
  import spark.implicits._

  /** `rows` rows of a uniform key `k` in 1..nKeys and a uniform value `v`. */
  private def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long): DataFrame =
    spark.range(rows).select(
      (rand(seed) * nKeys + 1).cast(LongType) as "k",
      rand(seed + 1)                          as "v",
    )

  /** 4000 disaggregated rows over 40 distinct keys. */
  private lazy val small = uniformKeys(spark, rows = 4000, nKeys = 40, seed = 4)
    .select(col("k").cast("string").as("item"), lit(1.0).as("weight")).cache()

  /** 20000 rows over ~1500 keys (more keys than bins in the sketch tests). */
  private lazy val wide = uniformKeys(spark, rows = 20000, nKeys = 1500, seed = 5)
    .select(col("k").cast("string").as("item"), lit(1.0).as("weight")).cache()

  test("exact pre-aggregation matches the DuckDB oracle") {
    val agg = DisaggregatedSketch.exact(small, col("item"), col("weight"))
    Oracle.assertEquivalent(agg,
      "SELECT item, CAST(sum(CAST(weight AS DOUBLE)) AS DOUBLE) AS total FROM t GROUP BY item",
      "t" -> small)
  }

  test("exact pre-aggregation on TPC-H lineitem matches the DuckDB oracle") {
    val li = SynthData.lineitem(spark, sf = 0.002, seed = 0)
      .select(col("l_orderkey"), col("l_linenumber").cast("double").as("w"))
    val agg = DisaggregatedSketch.exact(li, col("l_orderkey"), col("w"))
    Oracle.assertEquivalent(agg,
      "SELECT CAST(l_orderkey AS VARCHAR) AS item, CAST(sum(CAST(w AS DOUBLE)) AS DOUBLE) AS total " +
        "FROM li GROUP BY l_orderkey",
      "li" -> li)
  }

  test("sketch in the exact regime equals the full GROUP BY (DuckDB oracle)") {
    // m far above the 40 distinct keys: no reduction ever fires, so the
    // sketch — including its distributed merge path — must be exact.
    val summary = DisaggregatedSketch.sketch(small, col("item"), col("weight"), m = 256, seed = 1)
    val entriesDf = summary.entries.map(e => (e.item, e.count)).toDF("item", "total")
    Oracle.assertEquivalent(entriesDf,
      "SELECT item, CAST(sum(CAST(weight AS DOUBLE)) AS DOUBLE) AS total FROM t GROUP BY item",
      "t" -> small)
  }

  test("sketch in the exact regime is exact through an explicit multi-partition merge") {
    val repart = small.repartition(13)
    val summary = DisaggregatedSketch.sketch(repart, col("item"), col("weight"), m = 256, seed = 2)
    val entriesDf = summary.entries.map(e => (e.item, e.count)).toDF("item", "total")
    Oracle.assertEquivalent(entriesDf,
      "SELECT item, CAST(sum(CAST(weight AS DOUBLE)) AS DOUBLE) AS total FROM t GROUP BY item",
      "t" -> small)
  }

  test("zero-weight rows are skipped: the exact-regime sketch equals the exact GROUP BY (DuckDB oracle)") {
    // Key 1 has only zero-weight rows; the other keys mix zero and unit rows.
    val zeros = uniformKeys(spark, rows = 4000, nKeys = 40, seed = 8)
      .select(col("k").cast("string").as("item"),
              when(col("k") === 1 || col("v") < 0.3, 0.0).otherwise(1.0).as("weight"))
      .repartition(7).cache()
    val summary = DisaggregatedSketch.sketch(zeros, col("item"), col("weight"), m = 256, seed = 14)
    assert(!summary.contains("1"))
    val exact = DisaggregatedSketch.exactPairs(zeros, col("item"), col("weight"))
    assert(exact.exists { case (i, w) => i == "1" && w == 0.0 })
    assert(summary.entries.map(e => e.item -> e.count).toMap == exact.filter(_._2 > 0).toMap)
    assert(summary.total == exact.map(_._2).sum)
    val entriesDf = summary.entries.map(e => (e.item, e.count)).toDF("item", "total")
    Oracle.assertEquivalent(entriesDf,
      "SELECT item, CAST(sum(CAST(weight AS DOUBLE)) AS DOUBLE) AS total FROM t GROUP BY item " +
        "HAVING sum(CAST(weight AS DOUBLE)) > 0",
      "t" -> zeros)
    zeros.unpersist()
  }

  test("null weights are skipped: sketch, sketchByGroup and exactPairs equal the non-null GROUP BY (DuckDB oracle)") {
    // Key 1 has only null weights; the other keys mix null, unit and weight-2 rows.
    val nulls = uniformKeys(spark, rows = 4000, nKeys = 40, seed = 9)
      .select(col("k").cast("string").as("item"),
              when(col("k") === 1 || col("v") < 0.3, lit(null).cast("double"))
                .when(col("v") < 0.6, 2.0).otherwise(1.0).as("weight"))
      .repartition(7).cache()
    val oracle = "SELECT item, CAST(sum(CAST(weight AS DOUBLE)) AS DOUBLE) AS total FROM t " +
      "WHERE weight IS NOT NULL GROUP BY item"
    assert(nulls.where(col("weight").isNull).count() > 0)

    val summary = DisaggregatedSketch.sketch(nulls, col("item"), col("weight"), m = 256, seed = 15)
    assert(!summary.contains("1"))
    Oracle.assertEquivalent(summary.entries.map(e => (e.item, e.count)).toDF("item", "total"), oracle, "t" -> nulls)

    val grouped = DisaggregatedSketch.sketchByGroup(nulls.withColumn("g", col("item").cast("int") % 3),
      Seq(col("g")), col("item"), col("weight"), m = 256, seed = 16)
    Oracle.assertEquivalent(grouped.select(explode(col("entries")).as("e"))
      .select(col("e.item").as("item"), col("e.count").as("total")), oracle, "t" -> nulls)

    val pairs = DisaggregatedSketch.exactPairs(nulls, col("item"), col("weight"))
    assert(!pairs.exists(_._1 == "1"))
    Oracle.assertEquivalent(pairs.toDF("item", "total"), oracle, "t" -> nulls)
    nulls.unpersist()
  }

  test("sketch total weight equals the row count even far below the distinct count") {
    val distinct = wide.select("item").distinct().count()
    val summary = DisaggregatedSketch.sketch(wide, col("item"), col("weight"), m = 100, seed = 3)
    assert(summary.total == 20000.0)
    assert(math.abs(summary.entries.map(_.count).sum - 20000.0) < 1e-6)
    assert(summary.size == math.min(100L, distinct))
  }

  test("sketch respects the bin budget") {
    val summary = DisaggregatedSketch.sketch(wide, col("item"), col("weight"), m = 64, seed = 4)
    assert(summary.size <= 64)
  }

  test("subset-sum estimates from the distributed sketch are unbiased across seeds") {
    val truthMap = DisaggregatedSketch.exactPairs(wide, col("item"), col("weight")).toMap
    val subset = truthMap.keySet.filter(_.toLong % 5 == 0)
    val truth = subset.toSeq.map(truthMap).sum
    val ests = (0 until 12).map { s =>
      DisaggregatedSketch.sketch(wide, col("item"), col("weight"), m = 200, seed = 100 + s)
        .subsetSum(subset.contains).value
    }
    TestUtil.assertUnbiased(ests.map(identity), truth, z = 4.5, label = "spark subset")
  }

  test("eq.5 variance from the distributed sketch is a usable error gauge") {
    val truthMap = DisaggregatedSketch.exactPairs(wide, col("item"), col("weight")).toMap
    val subset = truthMap.keySet.filter(_.toLong % 3 == 0)
    val truth = subset.toSeq.map(truthMap).sum
    val cover = (0 until 12).count { s =>
      DisaggregatedSketch.sketch(wide, col("item"), col("weight"), m = 200, seed = 300 + s)
        .subsetSum(subset.contains).covers(truth)
    }
    assert(cover >= 9, s"only $cover/12 intervals covered the truth")
  }

  test("sketchByGroup produces one exact sketch per group in the exact regime") {
    val grouped = uniformKeys(spark, rows = 3000, nKeys = 20, seed = 6)
      .select((col("k") % 3).cast("string").as("g"), col("k").cast("string").as("item"), lit(1.0).as("weight"))
      .cache()
    val out = DisaggregatedSketch.sketchByGroup(grouped, Seq(col("g")), col("item"), col("weight"),
      m = 64, seed = 7)
    assert(out.columns.toSeq == Seq("g", "entries", "minCount", "total"))
    val truth = grouped.groupBy("g", "item").count().collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getLong(2).toDouble).toMap
    val rows = out.collect()
    assert(rows.length == 3)
    rows.foreach { r =>
      val g = r.getString(0)
      val entries = r.getAs[scala.collection.Seq[org.apache.spark.sql.Row]]("entries")
      entries.foreach { e =>
        val item = e.getAs[String]("item")
        assert(e.getAs[Double]("count") == truth((g, item)), s"group $g item $item")
      }
      val expectedTotal = truth.collect { case ((gg, _), c) if gg == g => c }.sum
      assert(r.getAs[Double]("total") == expectedTotal)
    }
    grouped.unpersist()
  }

  test("registered SQL aggregate works from the function registry") {
    DisaggregatedSketch.register(spark, "uss_sketch_test", m = 128, seed = 9)
    small.createOrReplaceTempView("uss_input")
    val row = spark.sql(
      "SELECT uss_sketch_test(item, weight) AS sk FROM uss_input").head().getStruct(0)
    val total = row.getAs[Double]("total")
    assert(total == 4000.0)
    val entries = row.getAs[scala.collection.Seq[org.apache.spark.sql.Row]]("entries")
    assert(entries.nonEmpty && entries.size <= 128)
  }

  test("a rerun over the same partitioning gives the same summaries, at 1 and at 7 partitions") {
    def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)
    Seq(1, 7).foreach { parts =>
      val df = wide.withColumn("g", col("item").cast("int") % 4).repartition(parts)
      def whole() = {
        val s = DisaggregatedSketch.sketch(df, col("item"), col("weight"), m = 50, seed = 11)
        (s.entries.map(e => (e.item, bits(e.count))), bits(s.minCount), bits(s.total))
      }
      def grouped() =
        DisaggregatedSketch.sketchByGroup(df, Seq(col("g")), col("item"), col("weight"), m = 20, seed = 12)
          .collect().sortBy(_.getInt(0)).toVector.map { r =>
            val es = r.getAs[scala.collection.Seq[org.apache.spark.sql.Row]]("entries")
              .map(e => (e.getAs[String]("item"), bits(e.getAs[Double]("count")))).toVector
            (r.getInt(0), es, bits(r.getAs[Double]("minCount")), bits(r.getAs[Double]("total")))
          }
      val (w, g) = (whole(), grouped())
      assert(w._1.size == 50 && g.size == 4 && g.forall(_._2.size == 20))
      assert(whole() == w, s"sketch differs between runs at $parts partitions")
      assert(grouped() == g, s"sketchByGroup differs between runs at $parts partitions")
    }
  }

  test("weighted sketching: totals equal the exact weighted sum") {
    val weighted = uniformKeys(spark, rows = 5000, nKeys = 800, seed = 12)
      .select(col("k").cast("string").as("item"), (col("v") * 4 + 0.5).as("weight")).cache()
    val trueTotal = weighted.agg(sum("weight")).head().getDouble(0)
    val summary = DisaggregatedSketch.sketch(weighted, col("item"), col("weight"), m = 100, seed = 13)
    assert(math.abs(summary.total - trueTotal) < 1e-6)
    assert(math.abs(summary.entries.map(_.count).sum - trueTotal) < 1e-6)
    weighted.unpersist()
  }
}
