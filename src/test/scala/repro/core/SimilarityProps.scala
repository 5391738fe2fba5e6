package repro.core

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll

/** Native ScalaCheck property suite for the similarity measures. */
object SimilarityProps extends Properties("Similarity") {
  import Similarity._

  private val str: Gen[String] = Gen.listOfN(10, Gen.alphaNumChar).map(_.mkString).flatMap(s =>
    Gen.choose(0, s.length).map(s.take))

  property("levSim identity") = forAll(str) { s => levenshteinSim(s, s) == 1.0 }
  property("levSim symmetry") = forAll(str, str) { (a, b) => levenshteinSim(a, b) == levenshteinSim(b, a) }
  property("levSim bounds") = forAll(str, str) { (a, b) =>
    val v = levenshteinSim(a, b); v >= 0.0 && v <= 1.0
  }
  property("jaro identity") = forAll(str) { s => s.isEmpty || jaro(s, s) == 1.0 }
  property("jaroWinkler >= jaro") = forAll(str, str) { (a, b) => jaroWinkler(a, b) >= jaro(a, b) - 1e-12 }
  property("jaccard bounds") = forAll(str, str) { (a, b) =>
    val v = tokenJaccard(a, b); v >= 0.0 && v <= 1.0
  }
  property("exact is 0 or 1") = forAll(str, str) { (a, b) =>
    val v = exactSim(a, b); v == 0.0 || v == 1.0
  }
  property("cosine identity") = forAll(str) { s => tfCosine(s, s) >= (if (Tokenize.words(s).isEmpty) 1.0 else 1.0 - 1e-9) }
  property("numericSim identity on ints") = forAll(Gen.choose(-10000, 10000)) { n =>
    numericSim(n.toString, n.toString) == 1.0
  }

  /** Null, empty, punctuation-only and mixed-case worded strings. */
  private val text: Gen[String] = Gen.frequency(
    1 -> Gen.const(null),
    1 -> Gen.const(""),
    2 -> Gen.listOf(Gen.oneOf(" .,;-!?/")).map(_.mkString),
    6 -> Gen.listOf(Gen.frequency(4 -> Gen.oneOf("a", "b", "ab", "Ba", "x1", "q@r"), 1 -> Gen.oneOf(" ", ", ", "--", "."))).map(_.mkString))

  /** The token measures computed from scratch, each tokenizing both sides. */
  private def fromScratch(a: String, b: String): Seq[Double] =
    if (a == null || b == null) Seq(0.0, 0.0, 0.0)
    else {
      val (sa, sb) = (Tokenize.wordSet(a), Tokenize.wordSet(b))
      def ratio(den: Int) =
        if (sa.isEmpty && sb.isEmpty) 1.0 else if (sa.isEmpty || sb.isEmpty) 0.0 else sa.intersect(sb).size.toDouble / den
      val cos =
        if (Tokenize.words(a).isEmpty && Tokenize.words(b).isEmpty) 1.0
        else Tokenize.cosine(Tokenize.tf(a), Tokenize.tf(b))
      Seq(ratio(sa.union(sb).size), cos, ratio(math.min(sa.size, sb.size)))
    }

  property("one Text per side shared by jaccard, cosine and overlap equals each measure from scratch") =
    forAll(text, text) { (a, b) =>
      val bits = (_: Seq[Double]).map(java.lang.Double.doubleToRawLongBits)
      val (ta, tb) = (new Text(a), new Text(b))
      val shared = Seq(ta.jaccard(tb), ta.cosine(tb), ta.overlap(tb))
      bits(shared) == bits(fromScratch(a, b)) &&
        bits(Seq(tokenJaccard(a, b), tfCosine(a, b), overlapCoeff(a, b))) == bits(fromScratch(a, b))
    }
}
