package repro.exp

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** Tiny-parameter smoke runs of every pure-JVM table harness: the full-size
  * runs (with shape assertions against the paper) live in bench/.
  */
class ExpSmokeSpec extends AnyFunSuite {

  private lazy val e1 = E1Inclusion.run(nItems = 100, targetTotal = 5000L, m = 20, reps = 20, seed = 1)
  private lazy val e2 = E2Skew.run(nItems = 150, shapes = Seq(0.5, 1.0), targetTotal = 5000L,
    m = 30, subsetSize = 20, nSubsets = 6, reps = 10, seed = 2)
  private lazy val e3 = E3BottomK.run(nItems = 150, targetTotal = 5000L, m = 20, subsetSize = 20,
    nSubsets = 6, reps = 10, seed = 3)
  private lazy val e4 = E4Priority.run(nItems = 150, targetTotal = 5000L, m = 30, subsetSize = 20,
    nSubsets = 6, reps = 10, seed = 4)
  private lazy val e6 = E6Pathological.run(nItemsPerHalf = 100, targetTotalPerHalf = 3000L, m = 20,
    subsetSize = 20, nSubsets = 5, reps = 15, seed = 5)
  private lazy val e7 = E7Variance.run(nItems = 200, targetTotal = 8000L, m = 40, reps = 20, seed = 6)
  private lazy val e9 = E9Merge.run(nItems = 200, targetTotal = 8000L, m = 40, shards = 4,
    subsetSize = 20, nSubsets = 5, reps = 10, seed = 7)

  private def sha(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).map(b => f"${b & 0xff}%02x").mkString

  test("E1 inclusion harness produces buckets that cover theory and experiment") {
    assert(e1.rows.nonEmpty)
    e1.rows.foreach { r =>
      assert(r.theoreticalPi >= 0 && r.theoreticalPi <= 1)
      assert(r.empiricalPi >= 0 && r.empiricalPi <= 1)
    }
    assert(e1.table.contains("T1"))
  }

  test("E2 skew harness produces one tercile row per shape") {
    assert(e2.rows.size == 6)
    e2.rows.foreach(r => assert(r.rrmse >= 0))
  }

  test("E3 bottom-k harness reports finite ratios") {
    assert(e3.rows.size == 3)
    assert(e3.overallRatio > 0 && !e3.overallRatio.isNaN)
  }

  test("E4 priority harness reports finite ratios") {
    assert(e4.rows.size == 3)
    assert(e4.overallRatio > 0 && !e4.overallRatio.isNaN)
  }

  // The rendered tables, digits included, so a refactor of the shared harness
  // code must print the very same tables.
  test("E2, E3 and E4 tables are pinned byte for byte") {
    assert(sha(e2.table) == "59ad4180c16b3aa429bb10925ceec868db6cac5359127f3bb2b405f22da7a098")
    assert(sha(e3.table) == "4d954feda736f372d2ebd37a543a7ad07beed4608206f89a51d38c29580f6d1b")
    assert(sha(e4.table) == "46663314414906f0f504c740e85a7c1d74f32f67cae628435c6877bad515991a")
  }

  test("E6 pathological harness reports ten deciles and an error row") {
    assert(e6.inclusion.size == 10)
    assert(e6.errors.map(_.scope) == Vector("all", "tail"))
    e6.errors.foreach(e => assert(e.ussRrmse >= 0 && e.dssRrmse >= 0))
  }

  test("E7 variance harness reports one row per epoch in both tables") {
    assert(e7.varianceRows.size == 10)
    assert(e7.errorRows.size == 10)
    e7.varianceRows.foreach { r =>
      assert(r.coverage >= 0 && r.coverage <= 1)
      assert(r.estSd >= 0 && r.ppsSd >= 0)
    }
  }

  test("E9 merge harness reports all four methods") {
    assert(e9.rows.map(_.method).toSet ==
      Set("single-pass", "pairwise", "priority", "misra-gries"))
    assert(e9("pairwise").totalRelErr < 1e-9, "pairwise merge must preserve totals exactly")
    assert(e9("single-pass").totalRelErr < 1e-9)
  }

  test("E1, E6, E7 and E9 tables are pinned byte for byte") {
    assert(sha(e1.table) == "8d5bd164e14e6cdea67225174d2329a62ca957af8769a99b914a081e0aa1c7ce")
    assert(sha(e6.table) == "f1adf9fe0137733a4304b350512f931d71a9428a275df7dc712dc42e8400b587")
    assert(sha(e7.varianceTable) == "4c4859530f6c87fb71fbb64e8babc16f82a16c162d88ff8442e6726b9e97d8b9")
    assert(sha(e7.errorTable) == "776082207ec1361687f4c9a6b2911a6d3eeb37993e5967ac2b4d20b5998a1fc0")
    assert(sha(e9.table) == "5412361f2cd7df5edebe4e8a69bffc3bff12f5ad7bd2c98eae552862b76eb362")
  }
}

/** Spark-backed smoke runs for the two Spark-native harnesses. */
class ExpSparkSmokeSpec extends SparkSpec {

  test("E5 criteo harness produces size-bucketed rows") {
    val rep = E5Criteo.run(spark, sf = 2e-4, m = 512, seeds = 1, minFrac = 2e-3, seed = 8)
    assert(rep.rows.nonEmpty)
    rep.rows.foreach(r => assert(r.ussRrmse >= 0 && r.priorityRrmse >= 0))
  }

  test("E10 tpch harness produces one row per method") {
    val rep = E10Tpch.run(spark, sf = 0.005, m = 256, seeds = 1, nFilters = 5, seed = 9)
    assert(rep.rows.map(_.method) == Vector("uss", "priority", "bottom-k"))
    rep.rows.foreach(r => assert(r.rrmse >= 0 && !r.rrmse.isNaN))
  }
}
