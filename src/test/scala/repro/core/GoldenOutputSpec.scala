package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.security.MessageDigest
import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.data.Streams
import repro.TestUtil.poissonSample
import repro.sampling.{BottomK, HtSample, PrioritySampling}

/** Pins the exact seeded outputs of the sketches and of the unbiased merges:
  * every bin in `entriesVector` order with its count's bit pattern, plus
  * `minCount`, `totalWeight` and `size`. Any change to the random draws, their
  * order, bin placement or merge order changes these strings, so a rewrite of
  * the update or merge kernels must leave them untouched. Small cases are
  * spelled out; large ones are compared through a SHA-256 of the same
  * rendering. Bottom-k samples are pinned the same way, with the bits of τ,
  * since their per-item hash decides which items are kept. Query answers read
  * off finished summaries (subset sums with their variances, point estimates,
  * membership and top-k) are pinned as bits too, so a faster query path must
  * return the very same numbers. The seeded draws of the stream generators
  * and of the PPS and priority samplers are pinned as well.
  */
class GoldenOutputSpec extends AnyFunSuite {

  private def bits(d: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(d))

  private def render[T](es: Seq[Entry[T]], minCount: Double, total: Double, size: Int): String =
    es.map(e => s"${e.item}:${bits(e.count)}").mkString(",") +
      s"|min=${bits(minCount)}|total=${bits(total)}|size=$size"

  private def render[T](s: SpaceSavingBase[T]): String =
    render(s.entriesVector, s.minCount, s.totalWeight, s.size)

  private def sha(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).map(b => f"${b & 0xff}%02x").mkString

  /** A skewed item id in [0, n): small ids are far more frequent. */
  private def skewed(r: SplittableRandom, n: Int): Int = (n * math.pow(r.nextDouble(), 4)).toInt

  private def feed(s: SpaceSavingBase[Int], rows: Int, items: Int, seed: Long, weighted: Boolean): Unit = {
    val r = new SplittableRandom(seed)
    (0 until rows).foreach { _ =>
      val x = skewed(r, items)
      s.update(x, if (weighted) 0.05 + 5 * r.nextDouble() else 1.0)
    }
  }

  private def uss(m: Int, seed: Long, rows: Int, items: Int, weighted: Boolean = false): UnbiasedSpaceSaving[Int] = {
    val s = UnbiasedSpaceSaving[Int](m, seed)
    feed(s, rows, items, seed + 100, weighted)
    s
  }

  test("unit-weight USS bins, minCount and total are pinned exactly") {
    val s = uss(m = 6, seed = 3, rows = 400, items = 40)
    assert(s.entriesVector.map(e => s"${e.item}=${e.count}").mkString(" ") ==
      "0=167.0 22=46.0 29=46.0 6=47.0 10=47.0 37=47.0")
    assert(s.minCount == 46.0 && s.totalWeight == 400.0 && s.size == 6)
  }

  test("USS outputs are pinned: unit and weighted rows, small and large m") {
    assert(sha(render(uss(m = 64, seed = 1, rows = 20000, items = 2000))) == "ba98fe8345603a0c7c1eeb1027c9a7278f972a70f44a96217a60a261aa4d6364")
    assert(sha(render(uss(m = 37, seed = -5, rows = 20000, items = 500, weighted = true))) == "c47cbc28168058df09ac6b0e8db8dc1f867b9687d036a26c64bed7397d9e8d50")
    assert(sha(render(uss(m = 4096, seed = 11, rows = 300000, items = 100000))) == "495744a6f32db3204b43983cd9b0fdac7118c35f3cd29beb1d55f304372087f0")
  }

  test("weighted DSS outputs are pinned") {
    val s = DeterministicSpaceSaving[Int](50, seed = 7)
    feed(s, 20000, 800, 77, weighted = true)
    assert(sha(render(s)) == "79a77305c52aba18fcb64c121127e6a74c640029d6569fa454b10d48f598020b")
  }

  test("string-keyed USS outputs are pinned") {
    val s = UnbiasedSpaceSaving[String](40, seed = 9)
    val r = new SplittableRandom(99)
    (0 until 20000).foreach(_ => s.update("k" + skewed(r, 1000)))
    assert(sha(render(s)) == "f954c8457b7a38693c58693c60092c1165aeb9ae54c25c4b0a75278168cb829e")
  }

  test("pairwise merge output order, counts and total are pinned") {
    val parts = (0 until 8).map(k => uss(m = 48, seed = 20 + k, rows = 6000, items = 900).summary)
    val merged = Merge.pairwiseUnbiased(48, 5, parts)
    assert(sha(render(merged)) == "057ccd1889b5a0dba1f2f8a8614c1fba36fcd25f8985bb572de6c60294d55de9")
    val big = (0 until 4).map(k => uss(m = 4096, seed = 40 + k, rows = 100000, items = 100000).summary)
    assert(sha(render(Merge.pairwiseUnbiased(4096, 6, big))) == "4039d37964368bf15a87a31ff242b2776a58adab38f2267ec9ed0bc3dc48be3f")
  }

  test("priority-sampled merge output is pinned") {
    val parts = (0 until 8).map(k => uss(m = 48, seed = 60 + k, rows = 6000, items = 900).summary)
    val merged = Merge.prioritySampled(48, 8, parts)
    assert(sha(render(merged)) == "88d67b28bff01aee9148b2b9b8b4f46ecff696dd2d5e81a04b2171959a8cf986")
  }

  test("a sketch rebuilt by fromEntries or a merge keeps ingesting the same way") {
    val src = uss(m = 30, seed = 12, rows = 5000, items = 300)
    val rebuilt = UnbiasedSpaceSaving.fromEntries(30, 13, src.entriesVector, src.totalWeight)
    feed(rebuilt, 5000, 300, 14, weighted = false)
    assert(sha(render(rebuilt)) == "bad4751ea989b50b3a859c57e994ea0308710409896234f91347f9bc61ef109f")

    val parts = (0 until 4).map(k => uss(m = 30, seed = 15 + k, rows = 3000, items = 300).summary)
    val merged = Merge.pairwiseUnbiased(30, 19, parts)
    feed(merged, 5000, 300, 20, weighted = true)
    assert(sha(render(merged)) == "de814fc342590d72af6a097e4ee8f620b736b863204e2595ea080d493dbcbc72")
  }

  test("a Java-serialized sketch continues the same stream as the original") {
    val a = uss(m = 25, seed = 21, rows = 3000, items = 200)
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(a)
    out.close()
    val b = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[UnbiasedSpaceSaving[Int]]
    assert(render(b) == render(a))
    feed(a, 3000, 200, 22, weighted = true)
    feed(b, 3000, 200, 22, weighted = true)
    assert(render(b) == render(a))
    assert(sha(render(a)) == "ed697aa0c2d64b8cb235cd0d5efffb58a0021dbc68929d32735a4b7e27664bb0")
  }

  private def renderBottomK[T](b: HtSample[T]): String =
    b.entries.map(e => s"${e.item}:${bits(e.weight)}").mkString(",") + s"|tau=${bits(b.tau)}"

  test("seeded bottom-k samples over a Weibull stream are pinned") {
    val stream = Streams.expand(Streams.weibullCounts(3000, 0.3, scale = 20.0), Streams.Order.Permuted, 31)
    val ints = BottomK[Int](40, seed = 32)
    stream.foreach(ints.update(_))
    assert(sha(renderBottomK(ints.result)) == "bbe48a4b64ce77ae2da9c3cca126b0ab329b433b71998db4fb1a0a22059cdf5b")

    val strs = BottomK[String](25, seed = -33)
    val r = new SplittableRandom(34)
    stream.foreach(x => strs.update("w" + x, 0.05 + 5 * r.nextDouble()))
    assert(sha(renderBottomK(strs.result)) == "f6b1c8892e7c1d7ee01dfc728dda2b2a74234527812bbc3e102e762ef269929c")

    val small = BottomK[Int](5, seed = 35)
    stream.take(2000).foreach(small.update(_))
    assert(renderBottomK(small.result) == "2738:4000000000000000,2386:3ff0000000000000,2789:3ff0000000000000,2950:4020000000000000,2186:3ff0000000000000|tau=3f91b06074589f80")
  }

  /** Every query answer of `s` over `sets` and the probe items, as bits. */
  private def renderQueries(s: SketchSummary[Int], sets: Seq[Set[Int]], probes: Range): String =
    sets.map { q => val e = s.subsetSumOf(q); s"${q.size}:${bits(e.value)}/${bits(e.variance)}" }.mkString(",") +
      "|est=" + probes.map(i => bits(s.estimate(i))).mkString(",") +
      "|in=" + probes.filter(s.contains).mkString(",") +
      "|top=" + s.topK(12).map(e => s"${e.item}:${bits(e.count)}").mkString(",")

  /** Seeded query sets over [−50, 1.5·items): the empty set, sets smaller and
    * larger than a summary of `bins` bins, and a set of items no summary holds.
    */
  private def querySets(items: Int, bins: Int, seed: Long): Seq[Set[Int]] = {
    val r = new SplittableRandom(seed)
    val sizes = Seq(1, 3, bins / 4, bins - 1, bins, bins + 1, 4 * bins, items)
    Set.empty[Int] +: Set(-1, -2, items + 7) +:
      sizes.map(n => Seq.fill(n)(r.nextInt(items * 3 / 2 + 50) - 50).toSet)
  }

  test("subset sums, estimates, membership and top-k of finished summaries are pinned") {
    val single = uss(m = 64, seed = 1, rows = 20000, items = 2000).summary
    assert(sha(renderQueries(single, querySets(2000, 64, 70), -10 until 2100)) ==
      "1db8823c3ea113585d03e8e22ab66a478a6300674eeff4d03bbe47783313c644")
    val parts = (0 until 8).map(k => uss(m = 48, seed = 20 + k, rows = 6000, items = 900).summary)
    val pairwise = Merge.pairwiseUnbiased(48, 5, parts).summary
    assert(sha(renderQueries(pairwise, querySets(900, 48, 71), -10 until 950)) ==
      "738fe230986ed6f8ecb3f59cb8a2b9f8293f555600af6dccdfa1d01fcd4c81fc")
    val sampled = Merge.prioritySampled(48, 8, parts).summary
    assert(sampled.entries.exists(e => e.count != math.rint(e.count)))
    assert(sha(renderQueries(sampled, querySets(900, 48, 72), -10 until 950)) ==
      "d4e096c4daee9ba0bf2aec26cefcf43008b22f266357ae7a7d77187e86fca075")
    // Three of the four items hold bins and N̂_min = 262, so C_S = 3.
    assert(single.minCount == 262.0)
    assert(single.subsetSumOf(Set(0, 1, 2, -1)) == Estimate(3908.0, 262.0 * 262.0 * 3))
  }

  test("seeded stream orders and random subsets are pinned") {
    val counts = Streams.weibullCounts(2000, 0.3, scale = 20.0)
    def shaOf(rows: Array[Int]): String = sha(rows.mkString(","))
    assert(shaOf(Streams.expand(counts, Streams.Order.Permuted, 41)) == "c6168f6cc0529eb0c381ece1daa8506c37b8ecbf04a4288fd3c42436df73983d")
    assert(shaOf(Streams.expand(counts, Streams.Order.TwoHalves, 42)) == "e1cfcae09689284fbe9f1d84d38cc87c2063da4774f521c69d59ca97186f4889")
    val subsets = Streams.randomSubsets(5000, 100, 20, 43)
    assert(sha(subsets.map(_.toSeq.sorted.mkString(" ")).mkString("|")) == "aa25e2d1a05c9fc335e02677c37b53a2743b21dc86fc181a3a2e7e5db39dbcb7")
  }

  test("seeded Poisson PPS samples are pinned") {
    val r = new SplittableRandom(44)
    val items = (0 until 3000).map(i => i -> (0.05 + 50 * math.pow(r.nextDouble(), 3)))
    val sample = poissonSample(items, 200, 45)
    assert(sha(sample.map(e => s"${e.item}:${bits(e.count)}").mkString(",")) == "2a563bd4b6d575f4603a6bf1c2ca934e455f02a5f5c4f247eec6ad5d66925354")
  }

  private def render[T](p: HtSample[T]): String =
    p.entries.map(e => s"${e.item}:${bits(e.weight)}/${bits(e.adjusted)}").mkString(",") +
      s"|tau=${bits(p.tau)}"

  test("priority samples are pinned: entries, adjusted weights and tau, exhaustive and sampled") {
    val r = new SplittableRandom(46)
    val items = (0 until 3000).map(i => i -> (0.05 + 50 * math.pow(r.nextDouble(), 3)))
    assert(sha(render(PrioritySampling.sample(items, 150, 47))) == "9539070d23e5d8a226d0f4e771e4a414c8223571d44822b3877bb0df572f69e1")
    assert(sha(render(PrioritySampling.sample(items.take(40), 150, 48))) == "b300d1865914c6a79fc9d421acc20f72e271fec0878a7c28d8a6dd187c353abc")
    assert(render(PrioritySampling.sample(items.take(8), 3, 49)) == "2:4036d6c461d424c9/4036d6c461d424c9,0:4033844be9df9d30/4033844be9df9d30,7:401c15664f6640cd/4025f7177f6cb499|tau=3fb74f41b56012ab")
  }

  test("a priority-sampled merge keeps ingesting the same way") {
    val parts = (0 until 6).map(k => uss(m = 40, seed = 80 + k, rows = 4000, items = 700).summary)
    val sampled = Merge.prioritySampled(40, 86, parts)
    feed(sampled, 5000, 700, 87, weighted = true)
    assert(sha(render(sampled)) == "f567aa12d61a58f742de63e8a84bac77a413a0f7bbeb83376090515cacc75154")
    val exhaustive = Merge.prioritySampled(400, 88, parts)
    feed(exhaustive, 5000, 700, 89, weighted = false)
    assert(sha(render(exhaustive)) == "5b3d1cbcaa1c2866b156bd9a4d6c1927a158656ab5c153a5bd54e968c22241dc")
  }
}
