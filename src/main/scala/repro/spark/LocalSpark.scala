package repro.spark

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the `jobs/` entrypoints and the tests'
  * `repro.SparkSpec`.
  */
object LocalSpark {
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}
