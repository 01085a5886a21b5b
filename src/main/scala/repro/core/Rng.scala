package repro.core

/** The one random-number generator: java.util.Random's 48-bit linear
  * congruential generator held in a plain `Long`, so a draw is one
  * multiply-add instead of an `AtomicLong` compare-and-set. Its `nextLong`,
  * `nextDouble` and `nextInt(bound)` return what `java.util.Random` seeded
  * with `Rng.scramble(seed)` returns, bit for bit. Not thread-safe: each
  * sketch, merge or sampler owns its own.
  */
final class Rng private (private var state: Long) extends Serializable {

  private def next(bits: Int): Int = {
    state = (state * Rng.Multiplier + Rng.Addend) & Rng.Mask
    (state >>> (48 - bits)).toInt
  }

  /** As `java.util.Random.nextLong`. */
  def nextLong(): Long = (next(32).toLong << 32) + next(32)

  /** As `java.util.Random.nextDouble`: uniform on [0, 1) with 53 random bits. */
  def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * Rng.DoubleUnit

  /** As `java.util.Random.nextInt(bound)`: uniform on [0, bound), rejecting
    * the draws that would bias it when `bound` is not a power of two.
    */
  def nextInt(bound: Int): Int = {
    require(bound > 0, s"bound must be positive, got $bound")
    var r = next(31)
    val m = bound - 1
    if ((bound & m) == 0) (bound * r.toLong >> 31).toInt
    else {
      var u = r
      while ({ r = u % bound; u - r + m < 0 }) u = next(31)
      r
    }
  }
}

/** Seed hygiene: an LCG's streams are strongly correlated across
  * *sequential* seeds — exactly the pattern Monte Carlo harnesses produce
  * (`seedBase + rep`). Every generator is therefore seeded through a
  * splitmix64 finalizer so neighbouring seeds give independent streams.
  */
object Rng {
  private final val Multiplier = 0x5deece66dL
  private final val Addend = 0xbL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)

  /** The splitmix64 finalizer — bijective, avalanching. The one hash
    * primitive: seeds and per-item hashes both go through it.
    */
  def mix64(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** One splitmix64 step from `seed`: golden-gamma increment, then `mix64`. */
  def scramble(seed: Long): Long = mix64(seed + 0x9e3779b97f4a7c15L)

  /** A generator whose stream is decorrelated from neighbouring seeds,
    * initialized as `java.util.Random` initializes the scrambled seed.
    */
  def apply(seed: Long): Rng = new Rng((scramble(seed) ^ Multiplier) & Mask)
}
