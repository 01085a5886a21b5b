package repro.core

/** Build-once index item → position over the items of a finished summary or
  * sample, in their entry order.
  *
  * Slots pack (position + 1) << 32 | hash, 0 = empty, probed linearly as in
  * `SpaceSavingBase`'s live index. The table is at most a quarter full, not
  * half: most items a subset query asks for are not in the summary, and a
  * miss ends at the first empty slot, so a sparser table ends misses sooner.
  * Unlike the live index, items hash with `##` and match with `==`, Scala's
  * cooperative equality, as `Set.contains` does (1, 1L, 1.0 and BigInt(1)
  * are one item); the null item is allowed. A repeated item maps to its
  * last position and clears `distinct`. Probes compare the hash in the slot
  * before reading the item, and read it from a flat array, not from an entry.
  */
private[repro] final class PositionIndex(items: Array[Any]) {
  private val bits = 32 - Integer.numberOfLeadingZeros(math.max(1, 4 * items.length - 1))
  private val slots = new Array[Long](1 << bits)

  /** Whether no item occurs twice. */
  val distinct: Boolean = {
    // This loop runs once per index, too rarely for the JIT to compile it,
    // so the work per item sits in `put`, which is called often enough.
    var unique = true
    var p = 0
    while (p < items.length) { unique &= put(p); p += 1 }
    unique
  }

  /** Enter position `p` at its item's slot; false if an earlier position
    * held that item.
    */
  private def put(p: Int): Boolean = {
    val h = items(p).##
    val i = slotOf(items(p), h)
    val fresh = slots(i) == 0L
    slots(i) = (p + 1).toLong << 32 | (h & 0xffffffffL)
    fresh
  }

  /** Position of `x`, the last one if it repeats, or -1. */
  def apply(x: Any): Int = (slots(slotOf(x, x.##)) >>> 32).toInt - 1

  /** The slot holding `x` (hash `h`), or the empty slot ending its probe run. */
  private def slotOf(x: Any, h: Int): Int = {
    val mask = slots.length - 1
    var i = (h * 0x9e3779b9) >>> (32 - bits)
    var e = slots(i)
    while (e != 0L && !(e.toInt == h && items((e >>> 32).toInt - 1) == x)) {
      i = (i + 1) & mask
      e = slots(i)
    }
    i
  }
}
