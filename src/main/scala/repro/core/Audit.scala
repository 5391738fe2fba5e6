package repro.core

import org.apache.spark.sql.DataFrame

/** Algorithm 1: the fair-entity-matching evaluation loop.
  *
  * Given a scored test set (pairs + `score`), computes per-group measure
  * values under a lens, compares each against the overall (group-independent)
  * value via a disparity operator, and returns the discriminated groups —
  * those whose disparity exceeds the fairness threshold τ (EEOC 20 % rule by
  * default, §5.1.4).
  */
object Audit {

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
    def unfair(tau: Double): Boolean = subDisparity.exists(_ > tau)
  }

  final case class Result(tauMatch: Double, lens: Lens, cells: Seq[Cell]) {
    /** Discriminated groups for a measure (subtraction disparity > τ). */
    def unfairGroups(measure: Fairness.Measure, tauFair: Double = 0.2): Seq[String] =
      cells.filter(c => c.measure == measure && c.unfair(tauFair)).map(_.group).distinct.sorted
    /** Equalized Odds: union of TPRP- and FPRP-unfair groups (footnote 6). */
    def unfairGroupsEO(tauFair: Double = 0.2): Seq[String] =
      (unfairGroups(Fairness.TPRP, tauFair) ++ unfairGroups(Fairness.FPRP, tauFair)).distinct.sorted
  }

  /** Runs the audit at one matching threshold. */
  def run(
      scored: DataFrame,
      tauMatch: Double,
      lens: Lens = Lens.Single,
      measures: Seq[Fairness.Measure] = Fairness.all,
      minSupport: Long = 10,
  ): Result = fromCube(ConfusionCube(scored, Seq(tauMatch)), tauMatch, lens, measures, minSupport)

  /** Threshold sweep: audits at each τ; used for the Table 7 sensitivity. */
  def sweep(
      scored: DataFrame,
      taus: Seq[Double],
      lens: Lens = Lens.Single,
      measures: Seq[Fairness.Measure] = Fairness.all,
      minSupport: Long = 10,
  ): Seq[Result] = {
    val cube = ConfusionCube(scored, taus)
    taus.map(fromCube(cube, _, lens, measures, minSupport))
  }

  /** The audit at `tauMatch`, one of the thresholds `cube` was built for.
    * Groups with fewer than `minSupport` legitimate pairs are skipped: only
    * "valid groups" are audited (§5.1).
    */
  def fromCube(cube: ConfusionCube, tauMatch: Double, lens: Lens,
               measures: Seq[Fairness.Measure], minSupport: Long): Result = {
    val overall = cube.overall(tauMatch)
    val cells = for {
      (g, conf) <- cube.counts(tauMatch, lens.keys).toSeq.sortBy(_._1)
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
  def thresholdSensitivity(
      results: Seq[Result],
      measure: Fairness.Measure,
      tauFair: Double = 0.2,
  ): Double = {
    val counts = results.map(_.unfairGroups(measure, tauFair).size)
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
