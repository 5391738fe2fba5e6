package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Confusion counts of a matcher's decisions. */
final case class Confusion(tp: Long, fp: Long, tn: Long, fn: Long) {
  def total: Long = tp + fp + tn + fn
  def +(o: Confusion): Confusion = Confusion(tp + o.tp, fp + o.fp, tn + o.tn, fn + o.fn)
}

object Confusion { val zero: Confusion = Confusion(0, 0, 0, 0) }

/** The auditing lens (§3.2.2) as the keys a pair with left/right group sets
  * (g1, g2) is legitimate for: single at level k — every level-k subgroup
  * (k level-1 groups, sorted and `&`-joined, e.g. "Female&Pop") that either
  * record's group set covers (§3.2.1, Fig 1); level 1 is the groups
  * themselves. Pairwise — the unordered group pair "g|g'" (g <= g') of every
  * left-record group g with every right-record group g'.
  */
sealed abstract class Lens { def keys(g1: Seq[String], g2: Seq[String]): Set[String] }
object Lens {
  final case class Single(level: Int) extends Lens {
    def keys(g1: Seq[String], g2: Seq[String]): Set[String] = (subgroups(g1) ++ subgroups(g2)).toSet
    private def subgroups(g: Seq[String]): Iterator[String] = g.distinct.sorted.combinations(level).map(_.mkString("&"))
  }
  case object Pairwise extends Lens {
    def keys(g1: Seq[String], g2: Seq[String]): Set[String] =
      (for (a <- g1; b <- g2) yield if (a <= b) s"$a|$b" else s"$b|$a").toSet
  }
}

/** The confusion cube of one scored frame: pair counts by (left group set,
  * right group set, label, τ-bucket) from one [[Counts]] job. Overall, lens
  * (groups, level-k subgroups, group pairs) and per-τ counts are Scala
  * projections of it (Appendix B: a pair's result counts for the groups of
  * BOTH records).
  *
  * Input schema: `g1 array<string>`, `g2 array<string>`, `label int`,
  * `score double`. A pair is a match at τ iff Spark's `score >= τ` holds.
  */
final class ConfusionCube private (grid: IndexedSeq[Double], cells: Seq[ConfusionCube.Cell]) {

  /** Confusion at grid value `tau` per key of `lens`; a pair counts once per
    * distinct key it is legitimate for, and only keys some pair has occur.
    */
  def counts(tau: Double, lens: Lens): Map[String, Confusion] = {
    val i = index(tau)
    cells.foldLeft(Map.empty[String, Confusion]) { (acc, c) =>
      val conf = c.confusion(matched = c.bucket > i)
      lens.keys(c.g1, c.g2).foldLeft(acc)((m, k) => m.updated(k, m.getOrElse(k, Confusion.zero) + conf))
    }
  }

  /** Overall confusion over all pairs (group-independent reference of Eq 1). */
  def overall(tau: Double): Confusion = {
    val i = index(tau)
    cells.foldLeft(Confusion.zero)((acc, c) => acc + c.confusion(matched = c.bucket > i))
  }

  private def index(tau: Double): Int = {
    val i = grid.indexOf(tau)
    require(i >= 0, s"τ $tau is not in the cube's grid ${grid.mkString(", ")}")
    i
  }
}

object ConfusionCube {

  /** `n` pairs sharing group sets, label and τ-bucket, the number of grid
    * thresholds their score passes: these are a prefix of the ascending grid,
    * so the pairs are matches at `grid(i)` iff `bucket > i`.
    */
  private final case class Cell(g1: Seq[String], g2: Seq[String], label: Option[Int], bucket: Int, n: Long) {
    def confusion(matched: Boolean): Confusion = (label, matched) match {
      case (Some(1), true)  => Confusion(n, 0, 0, 0)
      case (Some(0), true)  => Confusion(0, n, 0, 0)
      case (Some(0), false) => Confusion(0, 0, n, 0)
      case (Some(1), false) => Confusion(0, 0, 0, n)
      case _                => Confusion.zero
    }
  }

  /** One count over `scored` that serves every τ in `taus`. */
  def apply(scored: DataFrame, taus: Seq[Double]): ConfusionCube = {
    val grid = taus.distinct.sorted(Ordering.Double.TotalOrdering).toIndexedSeq
    val bucket = grid.map(t => when(col("score") >= t, 1).otherwise(0)).foldLeft(lit(0))(_ + _)
    val cells = Counts.by(scored, col("g1"), col("g2"), col("label"), bucket).map { case (r, n) =>
      Cell(r.getSeq[String](0), r.getSeq[String](1),
        if (r.isNullAt(2)) None else Some(r.getInt(2)), r.getInt(3), n)
    }
    new ConfusionCube(grid, cells.toSeq)
  }
}

/** Confusion counts of a scored frame at one τ, one [[ConfusionCube]] pass per
  * call. Kept only because the benchmark's staged pass calls them; once it
  * reads a cube directly, they go.
  */
object ConfusionCounts {
  def overall(scored: DataFrame, tau: Double): Confusion = ConfusionCube(scored, Seq(tau)).overall(tau)
  def single(scored: DataFrame, tau: Double): Map[String, Confusion] =
    ConfusionCube(scored, Seq(tau)).counts(tau, Lens.Single(1))
}
