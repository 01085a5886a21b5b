package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ForwardDecaySketchSpec extends AnyFunSuite {

  test("lambda = 0 reduces to plain unbiased counting") {
    val fd = new ForwardDecaySketch[String](m = 8, lambda = 0.0, seed = 1)
    (1 to 10).foreach(t => fd.update("a", t.toDouble))
    (1 to 4).foreach(t => fd.update("b", t.toDouble))
    assert(fd.decayedEstimate("a", now = 100.0) == 10.0)
    assert(fd.decayedEstimate("b", now = 100.0) == 4.0)
    assert(fd.decayedTotal(100.0) == 14.0)
  }

  test("decayed counts match the exact forward-decay weights in the exact regime") {
    val lambda = 0.05
    val fd = new ForwardDecaySketch[Int](m = 10, lambda = lambda, seed = 2)
    val rows = Seq((1, 3.0), (2, 5.0), (1, 9.0), (3, 11.0), (1, 20.0), (2, 21.0))
    rows.foreach { case (i, t) => fd.update(i, t) }
    val now = 25.0
    def truth(item: Int) =
      rows.filter(_._1 == item).map { case (_, t) => math.exp(-lambda * (now - t)) }.sum
    Seq(1, 2, 3).foreach { i =>
      assert(math.abs(fd.decayedEstimate(i, now) - truth(i)) < 1e-9, s"item $i")
    }
  }

  test("recency dominates: a recent burst outranks an old heavy item") {
    val fd = new ForwardDecaySketch[String](m = 4, lambda = 0.1, seed = 3)
    (1 to 50).foreach(t => fd.update("old", t.toDouble))
    (1 to 10).foreach(k => fd.update("new", 180.0 + k))
    val top = fd.topK(1, now = 200.0)
    assert(top.head.item == "new", s"expected recent item on top, got ${top.head}")
  }

  test("internal rescaling keeps estimates correct over long horizons") {
    val lambda = 1.0
    // lambda * t spans 0..200 — far beyond exp range without rescaling.
    val fd = new ForwardDecaySketch[Int](m = 6, lambda = lambda, seed = 4)
    val rows = (0 to 200 by 5).map(t => (t % 3, t.toDouble))
    rows.foreach { case (i, t) => fd.update(i, t) }
    val now = 205.0
    def truth(item: Int) =
      rows.filter(_._1 == item).map { case (_, t) => math.exp(-lambda * (now - t)) }.sum
    (0 until 3).foreach { i =>
      val est = fd.decayedEstimate(i, now)
      assert(math.abs(est - truth(i)) / truth(i) < 1e-6, s"item $i: est=$est truth=${truth(i)}")
    }
  }

  test("negative times and negative decay rates are rejected") {
    assertThrows[IllegalArgumentException](new ForwardDecaySketch[Int](4, -0.5, 1))
    val fd = new ForwardDecaySketch[Int](4, 0.5, 1)
    assertThrows[IllegalArgumentException](fd.update(1, -1.0))
  }

  test("capacity is respected under decay") {
    val fd = new ForwardDecaySketch[Int](m = 5, lambda = 0.01, seed = 5)
    (0 until 500).foreach(i => fd.update(i, i.toDouble))
    assert(fd.size <= 5)
  }
}
