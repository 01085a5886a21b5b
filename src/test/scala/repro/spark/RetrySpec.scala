package repro.spark

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.TimeUnit
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger}
import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import scala.jdk.CollectionConverters._

/** A Spark task that fails once and is retried must give the same sketch.
  *
  * Local mode gives a task one attempt unless the master says otherwise, and
  * one JVM holds one SparkContext. So the test starts one child JVM on the
  * test classpath with `SPARK_MASTER=local[2,2]` (two attempts per task);
  * every other test keeps one attempt. The child (`RetryChild`) injects one
  * failure per run through a UDF and reports `key=value` lines.
  */
class RetrySpec extends AnyFunSuite {

  private lazy val report: Map[String, String] = {
    val java = Paths.get(System.getProperty("java.home"), "bin", "java").toString
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filterNot(_.startsWith("-Xmx"))
    val cmd = (java +: jvmArgs.toSeq) ++
      Seq("-Xmx1g", "-cp", System.getProperty("java.class.path"), RetryChild.getClass.getName.stripSuffix("$"))
    val (stdout, stderr) = (Files.createTempFile("retry-child", ".out"), Files.createTempFile("retry-child", ".log"))
    val pb = new ProcessBuilder(cmd: _*).redirectOutput(stdout.toFile).redirectError(stderr.toFile)
    pb.environment().put("SPARK_MASTER", "local[2,2]")
    val p = pb.start()
    val finished = p.waitFor(5, TimeUnit.MINUTES)
    if (!finished) p.destroyForcibly().waitFor()
    val out = Files.readAllLines(stdout).asScala.toVector
    val tail = Files.readAllLines(stderr).asScala.takeRight(40).mkString("\n")
    Files.delete(stdout)
    Files.delete(stderr)
    assert(finished && p.exitValue() == 0, s"child JVM failed; stdout:\n${out.mkString("\n")}\nstderr tail:\n$tail")
    out.collect { case RetryChild.Line(k, v) => k -> v }.toMap
  }

  test("the child runs with two attempts per task") {
    assert(report("master") == "local[2,2]")
  }

  test("exact regime: a retried map task gives DuckDB's GROUP BY") {
    assert(report("exact.failures") == "1")
    assert(report("exact.oracle") == "ok")
  }

  test("over capacity: a retried map task gives the summary of a run with no failure") {
    assert(report("map.failures") == "1")
    assert(report("map.overCapacity") == "true")
    assert(report("map.equal") == "true")
  }

  test("over capacity: a retried reduce task of sketchByGroup gives the groups of a run with no failure") {
    assert(report("reduce.failures") == "1")
    assert(report("reduce.overCapacity") == "true")
    assert(report("reduce.equal") == "true")
  }
}

/** The child JVM of `RetrySpec`. Each case sketches one input twice, once
  * with no failure and once with a UDF that throws on the first attempt of
  * one task, and prints whether the two answers are `==`. Local mode runs
  * tasks in this JVM, so the UDF arms and counts through static state.
  */
object RetryChild {
  val Line = "retry:([^=]+)=(.*)".r

  private val armed = new AtomicBoolean(false)
  private val thrown = new AtomicInteger(0)

  /** Throws once, on the first attempt of the first task to get here while
    * armed (of partition `partition`, or of any partition if it is negative).
    */
  private def failOnce(partition: Int): Unit = {
    val tc = TaskContext.get()
    if (tc.attemptNumber() == 0 && (partition < 0 || tc.partitionId() == partition) && armed.compareAndSet(true, false)) {
      thrown.incrementAndGet()
      throw new IllegalStateException(s"injected failure in partition ${tc.partitionId()}, attempt 0")
    }
  }

  /** `body` with the failure armed or not; returns its result and the number
    * of failures injected.
    */
  private def run[A](fail: Boolean)(body: => A): (A, Int) = {
    thrown.set(0)
    armed.set(fail)
    val a = body
    armed.set(false)
    (a, thrown.get)
  }

  private def report(k: String, v: Any): Unit = println(s"retry:$k=$v")

  def main(args: Array[String]): Unit = {
    val spark = LocalSpark.session("retry")
    import spark.implicits._
    report("master", spark.sparkContext.master)
    // Map side: the item passes through a UDF in partition 3's map task.
    val mapFail = udf { (s: String) => failOnce(3); s }
    // Reduce side: `total` passes through a UDF in the aggregate's final stage.
    val reduceFail = udf { (t: Double) => failOnce(-1); t }

    /** `n` unit-weight rows in 8 partitions over `items` items. */
    def rows(n: Long, items: Int): DataFrame = spark.range(0, n, 1, 8)
      .select(pmod(xxhash64(col("id")), lit(items)).cast("string").as("item"), lit(1.0).as("weight"))
    def sketch(df: DataFrame, m: Int, seed: Long) =
      DisaggregatedSketch.sketch(df.select(mapFail(col("item")).as("item"), col("weight")),
        col("item"), col("weight"), m, seed)

    val small = rows(8000, 200)
    val (exact, exactFailures) = run(fail = true)(sketch(small, m = 256, seed = 1))
    report("exact.failures", exactFailures)
    report("exact.oracle", try {
      Oracle.assertEquivalent(exact.entries.map(e => (e.item, e.count)).toDF("item", "total"),
        "SELECT item, CAST(sum(CAST(weight AS DOUBLE)) AS DOUBLE) AS total FROM t GROUP BY item", "t" -> small)
      "ok"
    } catch { case e: IllegalArgumentException => e.getMessage.replace('\n', ' ') })

    val big = rows(400_000, 60_000)
    val (clean, _) = run(fail = false)(sketch(big, m = 256, seed = 2))
    val (retried, mapFailures) = run(fail = true)(sketch(big, m = 256, seed = 2))
    report("map.failures", mapFailures)
    report("map.overCapacity", retried.minCount > 0 && retried.size == 256)
    report("map.equal", clean == retried)

    def groups(): Seq[(Long, Seq[(String, Double)], Double, Double)] =
      DisaggregatedSketch.sketchByGroup(big.withColumn("g", pmod(xxhash64(col("item")), lit(4))),
          Seq(col("g")), col("item"), col("weight"), m = 256, seed = 3)
        .select(col("g"), col("entries"), col("minCount"), reduceFail(col("total")).as("total"))
        .collect().toSeq
        .map(r => (r.getLong(0), r.getSeq[Row](1).map(e => (e.getString(0), e.getDouble(1))), r.getDouble(2), r.getDouble(3)))
        .sortBy(_._1)
    val (cleanGroups, _) = run(fail = false)(groups())
    val (retriedGroups, reduceFailures) = run(fail = true)(groups())
    report("reduce.failures", reduceFailures)
    report("reduce.overCapacity", retriedGroups.size == 4 && retriedGroups.forall(g => g._3 > 0 && g._2.size == 256))
    report("reduce.equal", cleanGroups == retriedGroups)
    spark.stop()
  }
}
