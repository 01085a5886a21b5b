package repro.core

import scala.util.Random

/** Seed hygiene: `java.util.Random` (behind `scala.util.Random`) is a linear
  * congruential generator whose streams are strongly correlated across
  * *sequential* seeds — exactly the pattern Monte Carlo harnesses produce
  * (`seedBase + rep`). Every RNG in this codebase is therefore constructed
  * through a splitmix64 finalizer so neighbouring seeds give independent
  * streams.
  */
object Rng {

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

  /** A Random whose stream is decorrelated from neighbouring seeds. */
  def apply(seed: Long): Random = new Random(scramble(seed))
}

/** The `nextLong`/`nextDouble` stream of `Rng(seed)` without its overhead:
  * java.util.Random's 48-bit linear congruential generator held in a plain
  * `Long`, so a draw is one multiply-add instead of an `AtomicLong`
  * compare-and-set behind a wrapper. Same seeding, same draws, bit for bit.
  * Not thread-safe: each sketch or merge owns its own.
  */
final class Lcg private (private var state: Long) extends Serializable {

  private def next(bits: Int): Int = {
    state = (state * Lcg.Multiplier + Lcg.Addend) & Lcg.Mask
    (state >>> (48 - bits)).toInt
  }

  /** As `java.util.Random.nextLong`. */
  def nextLong(): Long = (next(32).toLong << 32) + next(32)

  /** As `java.util.Random.nextDouble`: uniform on [0, 1) with 53 random bits. */
  def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * Lcg.DoubleUnit
}

object Lcg {
  private final val Multiplier = 0x5deece66dL
  private final val Addend = 0xbL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)

  /** Seeded exactly as `Rng(seed)`: the scrambled seed, as java.util.Random
    * initializes it.
    */
  def apply(seed: Long): Lcg = new Lcg((Rng.scramble(seed) ^ Multiplier) & Mask)
}
