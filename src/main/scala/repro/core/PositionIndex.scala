package repro.core

/** The one item → position index, over the caller's array of items: a live
  * sketch's bin labels (`SpaceSavingBase`, which enters and removes positions
  * as bins fill and change label) and the items of a finished summary (built
  * once, in entry order).
  *
  * Slots pack (position + 1) << 32 | hash, 0 = empty, probed linearly from a
  * multiplicative home. The table holds 4 slots per item of `items` or more,
  * so it is at most a quarter full: most items a subset query asks for are
  * not in the summary, and a miss ends at the first empty slot, so a sparse
  * table ends misses sooner. Items hash with `##` and match with `==`,
  * Scala's cooperative equality, as `Set.contains` and `Merge.combine`'s map
  * do (1, 1L, 1.0 and BigInt(1) are one item); the null item is allowed.
  * Probes compare the hash in the slot before reading the item, and read it
  * from `items`, not from an entry.
  *
  * The constructor enters positions [0, `filled`). Later, the caller enters
  * a position with `put` after writing its item, and removes it with `remove`
  * before overwriting the item. Items are distinct: `put` rejects an item
  * that an entered position already holds, so a sketch or summary that
  * repeats an item fails when its index is built.
  */
private[core] final class PositionIndex(items: Array[Any], filled: Int) {
  private val bits = 32 - Integer.numberOfLeadingZeros(math.max(1, 4 * items.length - 1))
  private val slots = new Array[Long](1 << bits)

  // This loop runs once per index, too rarely for the JIT to compile it, so
  // the work per item sits in `put`, which is called often enough.
  locally {
    var p = 0
    while (p < filled) { put(p); p += 1 }
  }

  /** Enter position `p` at its item's slot; throws if an entered position
    * already holds that item.
    */
  def put(p: Int): Unit = {
    val h = items(p).##
    val i = slotOf(items(p), h)
    if (slots(i) != 0L) throw new IllegalArgumentException(s"duplicate item ${items(p)}")
    slots(i) = (p + 1).toLong << 32 | (h & 0xffffffffL)
  }

  /** Remove position `p`, whose item is still in `items`, shifting later
    * slots of its probe run back so every remaining item stays reachable
    * from its home.
    */
  def remove(p: Int): Unit = {
    val mask = slots.length - 1
    var hole = home(items(p).##)
    while ((slots(hole) >>> 32).toInt != p + 1) hole = (hole + 1) & mask
    var j = (hole + 1) & mask
    while (slots(j) != 0L) {
      val h = home(slots(j).toInt)
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        slots(hole) = slots(j)
        hole = j
      }
      j = (j + 1) & mask
    }
    slots(hole) = 0L
  }

  /** Position of `x`, or -1. */
  def apply(x: Any): Int = (slots(slotOf(x, x.##)) >>> 32).toInt - 1

  private def home(h: Int): Int = (h * 0x9e3779b9) >>> (32 - bits)

  /** The slot holding `x` (hash `h`), or the empty slot ending its probe run. */
  private def slotOf(x: Any, h: Int): Int = {
    val mask = slots.length - 1
    var i = home(h)
    var e = slots(i)
    while (e != 0L && !(e.toInt == h && items((e >>> 32).toInt - 1) == x)) {
      i = (i + 1) & mask
      e = slots(i)
    }
    i
  }
}
