package repro.core

/** String/numeric similarity measures used by rule-based matching and by
  * Magellan-style feature generation (§4.1).
  *
  * All measures return values in [0,1]; 1 is "identical". By convention a
  * comparison with a missing (null) value yields 0 — the pair carries no
  * evidence of a match for that attribute. This makes dirty datasets
  * genuinely harder for feature-based matchers, as the paper observes.
  *
  * Plain Scala, testable without Spark and reusable from the neural encoder.
  * [[FeatureGen]] names the features and runs these functions inside its one
  * feature UDF; the token measures also take a [[Text]], so the features of
  * one long-text value share one tokenization.
  */
object Similarity {

  /** Normalized Levenshtein similarity: 1 - dist / max(len). */
  def levenshteinSim(a: String, b: String): Double = {
    if (a == null || b == null) return 0.0
    if (a.isEmpty && b.isEmpty) return 1.0
    val d = levenshteinDist(a, b)
    1.0 - d.toDouble / math.max(a.length, b.length)
  }

  def levenshteinDist(a: String, b: String): Int = {
    val m = a.length; val n = b.length
    if (m == 0) return n
    if (n == 0) return m
    var prev = Array.tabulate(n + 1)(identity)
    var cur  = new Array[Int](n + 1)
    var i = 1
    while (i <= m) {
      cur(0) = i
      var j = 1
      while (j <= n) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(n)
  }

  /** Jaro similarity (in [0,1]). */
  def jaro(a: String, b: String): Double = {
    if (a == null || b == null) return 0.0
    if (a.isEmpty && b.isEmpty) return 1.0
    if (a.isEmpty || b.isEmpty) return 0.0
    val window = math.max(0, math.max(a.length, b.length) / 2 - 1)
    val aMatch = new Array[Boolean](a.length)
    val bMatch = new Array[Boolean](b.length)
    var matches = 0
    var i = 0
    while (i < a.length) {
      val lo = math.max(0, i - window)
      val hi = math.min(b.length - 1, i + window)
      var j = lo
      var found = false
      while (j <= hi && !found) {
        if (!bMatch(j) && a.charAt(i) == b.charAt(j)) {
          aMatch(i) = true; bMatch(j) = true; matches += 1; found = true
        }
        j += 1
      }
      i += 1
    }
    if (matches == 0) return 0.0
    var transpositions = 0
    var k = 0
    i = 0
    while (i < a.length) {
      if (aMatch(i)) {
        while (!bMatch(k)) k += 1
        if (a.charAt(i) != b.charAt(k)) transpositions += 1
        k += 1
      }
      i += 1
    }
    val m = matches.toDouble
    (m / a.length + m / b.length + (m - transpositions / 2.0) / m) / 3.0
  }

  /** Jaro-Winkler similarity with standard prefix scale 0.1, max prefix 4. */
  def jaroWinkler(a: String, b: String): Double = {
    val j = jaro(a, b)
    if (a == null || b == null) return 0.0
    var prefix = 0
    val maxPrefix = math.min(4, math.min(a.length, b.length))
    while (prefix < maxPrefix && a.charAt(prefix) == b.charAt(prefix)) prefix += 1
    j + prefix * 0.1 * (1.0 - j)
  }

  /** Jaccard similarity over word-token sets. */
  def tokenJaccard(a: String, b: String): Double = new Text(a).jaccard(new Text(b))

  /** Overlap coefficient over word-token sets: |A∩B| / min(|A|,|B|). */
  def overlapCoeff(a: String, b: String): Double = new Text(a).overlap(new Text(b))

  /** TF cosine over word tokens. */
  def tfCosine(a: String, b: String): Double = new Text(a).cosine(new Text(b))

  /** A value and its word tokens, tokenized on first use and then shared by
    * every token measure of the value. The String measures above build one
    * per call; [[FeatureGen]] builds one per value of a pair, so a long-text
    * value is tokenized once for its three token features.
    */
  final class Text(val raw: String) {
    lazy val words: Array[String] = Tokenize.words(raw)
    lazy val wordSet: Set[String] = words.toSet

    /** [[tokenJaccard]] of this and `o`. */
    def jaccard(o: Text): Double =
      if (raw == null || o.raw == null) 0.0
      else if (wordSet.isEmpty && o.wordSet.isEmpty) 1.0
      else if (wordSet.isEmpty || o.wordSet.isEmpty) 0.0
      else wordSet.intersect(o.wordSet).size.toDouble / wordSet.union(o.wordSet).size

    /** [[overlapCoeff]] of this and `o`. */
    def overlap(o: Text): Double =
      if (raw == null || o.raw == null) 0.0
      else if (wordSet.isEmpty && o.wordSet.isEmpty) 1.0
      else if (wordSet.isEmpty || o.wordSet.isEmpty) 0.0
      else wordSet.intersect(o.wordSet).size.toDouble / math.min(wordSet.size, o.wordSet.size)

    /** [[tfCosine]] of this and `o`. */
    def cosine(o: Text): Double =
      if (raw == null || o.raw == null) 0.0
      else if (words.isEmpty && o.words.isEmpty) 1.0
      else Tokenize.cosine(Tokenize.tf(words), Tokenize.tf(o.words))
  }

  /** Exact equality (case/whitespace-insensitive), null -> 0. */
  def exactSim(a: String, b: String): Double =
    if (a == null || b == null) 0.0
    else if (a.trim.equalsIgnoreCase(b.trim)) 1.0
    else 0.0

  /** Relative numeric similarity: 1 - |a-b| / max(|a|,|b|,1). Non-numeric
    * strings are treated as missing (0).
    */
  def numericSim(a: String, b: String): Double = {
    val pa = parseNum(a); val pb = parseNum(b)
    (pa, pb) match {
      case (Some(x), Some(y)) =>
        math.max(0.0, 1.0 - math.abs(x - y) / math.max(math.max(math.abs(x), math.abs(y)), 1.0))
      case _ => 0.0
    }
  }

  private def parseNum(s: String): Option[Double] =
    if (s == null) None
    else try Some(s.trim.toDouble)
    catch { case _: NumberFormatException => None }
}
