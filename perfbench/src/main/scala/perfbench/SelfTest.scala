package perfbench

import repro.core.{Entry, UnbiasedSpaceSaving}

/** Shows that the correctness checks catch corrupted summaries: a filled
  * sketch with one count inflated (its bins no longer sum to its total), and
  * a sketch whose total is off by one. The clean summary must pass.
  */
object SelfTest {
  def run(): Boolean = {
    val rng = new java.util.SplittableRandom(17)
    val exact = new Array[Double](200)
    val sketch = UnbiasedSpaceSaving[Int](16, 17)
    (1 to 5000).foreach { _ =>
      val i = (200 * math.pow(rng.nextDouble(), 3)).toInt
      exact(i) += 1
      sketch.update(i)
    }
    val clean = sketch.summary
    val distinct = exact.count(_ > 0)
    def passes(s: repro.core.SketchSummary[Int]): Boolean =
      new Checker().summary(s, exact.sum, distinct, (i: Int) => exact(i), "selftest")
    val top = clean.entries.maxBy(_.count)
    val inflated = clean.copy(entries = clean.entries.map(e => if (e == top) Entry(e.item, e.count + 1) else e))
    val offByOne = clean.copy(total = clean.total + 1)
    clean.minCount > 0 && passes(clean) && !passes(inflated) && !passes(offByOne)
  }
}
