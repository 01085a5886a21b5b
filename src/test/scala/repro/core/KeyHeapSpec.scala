package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Randomized differential test of `KeyHeap` against a sorted reference and
  * the textbook swap-based heap. Keys and ties come from a small signed
  * domain with both ends of `Long` in it, since `topK`'s keys span the whole
  * signed range; so many pairs share a key and some share (key, tie)
  * outright. Capacities are small and often reached, so the right-child read
  * at `size == capacity` (the spare slot) and at `size < capacity` (a stale
  * slot) both happen.
  */
class KeyHeapSpec extends AnyFunSuite {

  private type Key = (Long, Long)

  /** The swap-based sift: sink into the smaller child (the right one only
    * when strictly smaller) while it is strictly smaller; rise while strictly
    * smaller than the parent.
    */
  private final class SwapHeap(capacity: Int) {
    val key = new Array[Key](capacity)
    val id = new Array[Int](capacity)
    var size = 0

    private def less(a: Key, b: Key): Boolean = a._1 < b._1 || (a._1 == b._1 && a._2 < b._2)

    private def swap(a: Int, b: Int): Unit = {
      val k = key(a); key(a) = key(b); key(b) = k
      val i = id(a); id(a) = id(b); id(b) = i
    }

    private def up(s0: Int): Unit = {
      var s = s0
      while (s > 0 && less(key(s), key((s - 1) / 2))) { swap(s, (s - 1) / 2); s = (s - 1) / 2 }
    }

    private def down(s0: Int): Int = {
      var s = s0
      var done = false
      while (!done) {
        val l = 2 * s + 1
        var sm = s
        if (l < size && less(key(l), key(sm))) sm = l
        if (l + 1 < size && less(key(l + 1), key(sm))) sm = l + 1
        if (sm == s) done = true else { swap(s, sm); s = sm }
      }
      s
    }

    def push(k: Key, i: Int): Unit = { key(size) = k; id(size) = i; size += 1; up(size - 1) }
    def rekey(s: Int, k: Key): Unit = { key(s) = k; if (down(s) == s) up(s) }
    def pop(): Unit = { size -= 1; if (size > 0) { key(0) = key(size); id(0) = id(size); down(0) } }
  }

  private val keys = Array(Long.MinValue, -1L, 0L, 1L, Long.MaxValue)
  private val ties = Array(Long.MinValue, 0L, Long.MaxValue)

  test("KeyHeap matches a sorted reference and the swap-based heap slot for slot") {
    val r = new java.util.SplittableRandom(8)
    val ops = mutable.Map("push" -> 0, "rekeyUp" -> 0, "rekeyDown" -> 0, "rekeyRoot" -> 0, "pop" -> 0)
    var sharedKeys = 0
    var spareSlotSteps = 0
    (0 until 400).foreach { round =>
      val capacity = 1 + r.nextInt(40)
      val heap = new KeyHeap(capacity)
      val swap = new SwapHeap(capacity)
      val ref = mutable.Map.empty[Int, Key] // id -> key: the reference multiset
      def key(): Key = (keys(r.nextInt(keys.length)), ties(r.nextInt(ties.length)))
      def freeId(): Int = Iterator.continually(r.nextInt(capacity)).find(!ref.contains(_)).get

      def check(op: String): Unit = {
        val where = s"round $round (capacity $capacity) after $op"
        assert(heap.size == ref.size && swap.size == ref.size, where)
        (0 until heap.size).foreach { s =>
          assert(heap.slotOf(heap.id(s)) == s, s"$where: slotOf(id($s)) != $s")
          assert(heap.id(s) == swap.id(s), s"$where: slot $s holds id ${heap.id(s)}, swap heap ${swap.id(s)}")
          assert(heap.key(s) == ref(heap.id(s))._1 && heap.tie(s) == ref(heap.id(s))._2, s"$where: slot $s key")
        }
        if (ref.nonEmpty) {
          val min = ref.values.toSeq.sorted.head
          assert(ref(heap.id(0)) == min && heap.key(0) == min._1, s"$where: min ${ref(heap.id(0))} != $min")
        }
        if (ref.values.toSeq.distinct.size < ref.size) sharedKeys += 1
      }

      // Fill to capacity, churn at full size, then drain; pushes and pops
      // also interleave with the churn.
      val churn = 3 * capacity
      (0 until capacity + churn).foreach { step =>
        val filling = step < capacity
        val k = key()
        r.nextInt(if (filling) 1 else 10) match {
          case 0 | 1 if ref.size < capacity =>
            val i = freeId()
            heap.push(k._1, k._2, i); swap.push(k, i); ref(i) = k
            ops("push") += 1
            check("push")
          case 0 | 1 | 2 if ref.nonEmpty =>
            val i = heap.id(0)
            heap.pop(); swap.pop(); ref -= i
            ops("pop") += 1
            check("pop")
          case 3 | 4 if ref.nonEmpty =>
            // Re-key the minimum in place, as an update's miss and the
            // pairwise merge's collapse do.
            val i = heap.id(0)
            heap.rekey(0, k._1, k._2); swap.rekey(0, k); ref(i) = k
            ops("rekeyRoot") += 1
            check("rekeyRoot")
          case _ if ref.nonEmpty =>
            val s = r.nextInt(heap.size)
            val i = heap.id(s)
            val before = ref(i)
            heap.rekey(s, k._1, k._2); swap.rekey(s, k); ref(i) = k
            if (Ordering[Key].lt(k, before)) ops("rekeyUp") += 1
            else if (Ordering[Key].gt(k, before)) ops("rekeyDown") += 1
            check("rekey")
          case _ =>
        }
        if (ref.size == capacity && capacity % 2 == 0) spareSlotSteps += 1
      }
      var last: Option[Key] = None
      while (ref.nonEmpty) {
        val k = ref(heap.id(0))
        assert(last.forall(Ordering[Key].lteq(_, k)), s"round $round: pops out of order")
        last = Some(k)
        ref -= heap.id(0)
        heap.pop(); swap.pop()
        ops("pop") += 1
        check("drain pop")
      }
    }
    ops.foreach { case (op, n) => assert(n > 1000, s"only $n $op operations") }
    assert(sharedKeys > 1000, s"only $sharedKeys states with identical keys")
    assert(spareSlotSteps > 1000, s"only $spareSlotSteps steps at the spare-slot edge")
  }

  test("positive doubles order and compare equal as their raw bits, so the sketch's count keys keep every decision") {
    val r = new java.util.SplittableRandom(9)
    val special = Seq(Double.MinPositiveValue, java.lang.Double.MIN_NORMAL / 3, 1.0, Double.MaxValue, Double.PositiveInfinity)
    // Uniform bits from the smallest subnormal to +∞ spread over every
    // exponent; each value comes with its neighbours, so some pairs are one
    // ulp apart and every value meets itself.
    val random = Seq.fill(300)(java.lang.Double.longBitsToDouble(1 + r.nextLong(0x7ff0000000000000L)))
    val values = (special ++ random).flatMap(c => Seq(c, math.nextUp(c), math.nextDown(c))).filter(_ > 0).toArray
    for (a <- values; b <- values) {
      val (x, y) = (KeyHeap.bits(a), KeyHeap.bits(b))
      assert((x < y) == (a < b) && (x == y) == (a == b), s"$a vs $b: bits $x vs $y")
    }
    values.foreach(c => assert(KeyHeap.count(KeyHeap.bits(c)).equals(c), s"$c does not read back"))
  }
}
