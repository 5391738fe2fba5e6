package repro.core

import org.apache.spark.sql.DataFrame

/** Algorithm 1: the fair-entity-matching evaluation loop.
  *
  * Given a scored test set (pairs + `score`), computes per-group measure
  * values under a lens, compares each against the overall (group-independent)
  * value via a disparity operator, and returns the discriminated groups —
  * those whose disparity exceeds the fairness threshold [[Audit.tauFair]].
  */
object Audit {

  /** Groups with fewer legitimate pairs are not audited: only "valid groups"
    * are (§5.1).
    */
  val minSupport: Long = 10

  /** The fairness threshold on a subtraction disparity: the EEOC 20 % rule
    * (§5.1.4).
    */
  val tauFair: Double = 0.2

  /** One audited (group, measure) cell. */
  final case class Cell(
      group: String,
      measure: Fairness.Measure,
      overall: Option[Double],
      groupValue: Option[Double],
      subDisparity: Option[Double],
      divDisparity: Option[Double],
      support: Long,
  ) {
    def unfair: Boolean = subDisparity.exists(_ > tauFair)
  }

  final case class Result(tauMatch: Double, lens: Lens, cells: Seq[Cell]) {
    /** Discriminated groups for a measure (subtraction disparity > [[tauFair]]). */
    def unfairGroups(measure: Fairness.Measure): Seq[String] =
      cells.filter(c => c.measure == measure && c.unfair).map(_.group).distinct.sorted
    /** Equalized Odds: union of TPRP- and FPRP-unfair groups (footnote 6). */
    def unfairGroupsEO: Seq[String] =
      (unfairGroups(Fairness.TPRP) ++ unfairGroups(Fairness.FPRP)).distinct.sorted
  }

  /** Threshold sweep under the level-1 single lens, one [[ConfusionCube]]
    * pass. Kept only because the benchmark's staged pass calls it; once it
    * reads a cube directly, it goes.
    */
  def sweep(scored: DataFrame, taus: Seq[Double], measures: Seq[Fairness.Measure] = Fairness.all): Seq[Result] = {
    val cube = ConfusionCube(scored, taus)
    taus.map(fromCube(cube, _, Lens.Single(1), measures))
  }

  /** The audit at `tauMatch`, one of the thresholds `cube` was built for,
    * of every key of `lens` with at least [[minSupport]] legitimate pairs.
    */
  def fromCube(cube: ConfusionCube, tauMatch: Double, lens: Lens, measures: Seq[Fairness.Measure]): Result = {
    val overall = cube.overall(tauMatch)
    val cells = for {
      (g, conf) <- cube.counts(tauMatch, lens).toSeq.sortBy(_._1)
      if conf.total >= minSupport
      m <- measures
    } yield {
      val ov = m.value(overall)
      val gv = m.value(conf)
      val sub = for (o <- ov; v <- gv) yield Fairness.subDisparity(o, v, m.direction)
      val div = for (o <- ov; v <- gv) yield Fairness.divDisparity(o, v, m.direction)
      Cell(g, m, ov, gv, sub, div, conf.total)
    }
    Result(tauMatch, lens, cells)
  }

  /** Table 7's threshold sensitivity: the ℓ2 norm of the differences in the
    * number of unfair groups between adjacent matching thresholds.
    */
  def thresholdSensitivity(results: Seq[Result], measure: Fairness.Measure): Double = {
    val counts = results.map(_.unfairGroups(measure).size)
    math.sqrt(counts.sliding(2).collect { case Seq(a, b) => (b - a).toDouble * (b - a) }.sum)
  }

  // ------------------------------------------------------------------
  // Overall utility metrics (Table 9).
  // ------------------------------------------------------------------

  def accuracy(c: Confusion): Double =
    if (c.total == 0) 0.0 else (c.tp + c.tn).toDouble / c.total

  def f1(c: Confusion): Double = {
    val p = if (c.tp + c.fp == 0) 0.0 else c.tp.toDouble / (c.tp + c.fp)
    val r = if (c.tp + c.fn == 0) 0.0 else c.tp.toDouble / (c.tp + c.fn)
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }
}
