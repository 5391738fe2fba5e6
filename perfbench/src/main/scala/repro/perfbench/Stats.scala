package repro.perfbench

/** Order statistics and metric-name rules shared by the benchmark's reports. */
object Stats {

  /** Median of a non-empty sample (mean of the two middle values when even). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  private val Name = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}".r

  /** Returns `name` if it is a valid metric name, else throws. */
  def checkName(name: String): String = {
    require(Name.matches(name), s"invalid metric name '$name'")
    name
  }
}
