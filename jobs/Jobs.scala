package repro.jobs

import repro.spark.LocalSpark

/** spark-submit entrypoints, one per reproduced table (DESIGN.md §3); T7 and
  * T8 come from one simulation, so `E7Variance` prints both.
  * Pure-JVM experiments still go through spark-submit for uniformity; the
  * two Spark-native ones (T5, T10) build a local session.
  *
  * Usage: spark-submit --class repro.jobs.E1Inclusion target/scala-2.13/repro*.jar
  */
object E1Inclusion {
  def main(args: Array[String]): Unit = println(repro.exp.E1Inclusion.run().table)
}

object E2Skew {
  def main(args: Array[String]): Unit = println(repro.exp.E2Skew.run().table)
}

object E3BottomK {
  def main(args: Array[String]): Unit = println(repro.exp.E3BottomK.run().table)
}

object E4Priority {
  def main(args: Array[String]): Unit = println(repro.exp.E4Priority.run().table)
}

object E5Criteo {
  def main(args: Array[String]): Unit = {
    val spark = LocalSpark.session("E5Criteo")
    try println(repro.exp.E5Criteo.run(spark).table) finally spark.stop()
  }
}

object E6Pathological {
  def main(args: Array[String]): Unit = println(repro.exp.E6Pathological.run().table)
}

object E7Variance {
  def main(args: Array[String]): Unit = {
    val rep = repro.exp.E7Variance.run()
    println(rep.varianceTable); println()
    println(rep.errorTable)
  }
}

object E9Merge {
  def main(args: Array[String]): Unit = println(repro.exp.E9Merge.run().table)
}

object E10Tpch {
  def main(args: Array[String]): Unit = {
    val spark = LocalSpark.session("E10Tpch")
    try println(repro.exp.E10Tpch.run(spark).table) finally spark.stop()
  }
}

/** Run every table in sequence (the full evaluation): the table mains
  * above, a blank line between tables.
  */
object RunAll {
  def main(args: Array[String]): Unit = {
    val mains = Seq[Array[String] => Unit](E1Inclusion.main, E2Skew.main, E3BottomK.main,
      E4Priority.main, E6Pathological.main, E7Variance.main, E9Merge.main, E5Criteo.main, E10Tpch.main)
    mains.head(args)
    mains.tail.foreach { run => println(); run(args) }
  }
}
