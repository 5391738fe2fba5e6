package repro.core

/** Shared plain-Scala tokenization helpers, used both from UDFs (similarity
  * features) and from the neural text encoder. Deterministic and null-safe.
  */
object Tokenize {

  /** Lowercase word tokens; strips punctuation, keeps alphanumerics. */
  def words(s: String): Array[String] =
    if (s == null) Array.empty
    else s.toLowerCase.split("[^a-z0-9@]+").filter(_.nonEmpty)

  /** Distinct lowercase word tokens. */
  def wordSet(s: String): Set[String] = words(s).toSet

  /** Character n-grams of a token, with boundary padding so that short tokens
    * still produce at least one gram ("li" -> "#li", "li#").
    */
  def charNGrams(token: String, n: Int = 3): Array[String] = {
    if (token == null || token.isEmpty) return Array.empty
    val padded = "#" + token.toLowerCase + "#"
    if (padded.length <= n) Array(padded)
    else (0 to padded.length - n).map(i => padded.substring(i, i + n)).toArray
  }

  /** Term-frequency map of word tokens. */
  def tf(s: String): Map[String, Int] = tf(words(s))

  /** Term-frequency map of a token array. */
  def tf(tokens: Array[String]): Map[String, Int] =
    tokens.groupBy(identity).map { case (t, g) => (t, g.length) }

  /** Cosine similarity between two term-frequency maps. 0 when either empty. */
  def cosine(a: Map[String, Int], b: Map[String, Int]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val dot = a.iterator.map { case (t, c) => c.toDouble * b.getOrElse(t, 0) }.sum
    val na  = math.sqrt(a.valuesIterator.map(c => c.toDouble * c).sum)
    val nb  = math.sqrt(b.valuesIterator.map(c => c.toDouble * c).sum)
    if (na == 0 || nb == 0) 0.0 else dot / (na * nb)
  }
}
