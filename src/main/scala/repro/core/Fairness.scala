package repro.core

/** The 11 group-fairness measures of Table 2, their directionality, and the
  * disparity operators of §3.6 (subtraction, Eq 1; division, Eq 3).
  */
object Fairness {

  /** Whether a higher probability is the favourable direction for a group
    * (e.g. TPR) or a lower one is (e.g. FDR) — governs the sign convention of
    * the disparity (§3.6 "Guide for Practitioners").
    */
  sealed trait Direction
  case object HigherBetter extends Direction
  case object LowerBetter extends Direction

  /** One fairness measure: a probability computed from confusion counts.
    * ``value`` is None when the measure is inapplicable (zero denominator) —
    * e.g. TP-based measures on non-overlapping pairwise groups (§3.5).
    */
  sealed abstract class Measure(val abbrev: String, val direction: Direction) {
    def value(c: Confusion): Option[Double]
    protected def ratio(num: Long, den: Long): Option[Double] =
      if (den == 0) None else Some(num.toDouble / den)
  }

  case object AP extends Measure("AP", HigherBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.tp + c.tn, c.total)
  }
  case object SP extends Measure("SP", HigherBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.tp + c.fp, c.total)
  }
  case object TPRP extends Measure("TPRP", HigherBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.tp, c.tp + c.fn)
  }
  case object FPRP extends Measure("FPRP", LowerBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.fp, c.fp + c.tn)
  }
  case object FNRP extends Measure("FNRP", LowerBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.fn, c.tp + c.fn)
  }
  case object TNRP extends Measure("TNRP", HigherBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.tn, c.fp + c.tn)
  }
  case object PPVP extends Measure("PPVP", HigherBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.tp, c.tp + c.fp)
  }
  case object NPVP extends Measure("NPVP", HigherBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.tn, c.tn + c.fn)
  }
  case object FDRP extends Measure("FDRP", LowerBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.fp, c.tp + c.fp)
  }
  case object FORP extends Measure("FORP", LowerBetter) {
    def value(c: Confusion): Option[Double] = ratio(c.fn, c.tn + c.fn)
  }

  /** All base measures; Equalized Odds (EO) is derived — a group is EO-unfair
    * iff it is TPRP-unfair or FPRP-unfair (footnote 6 of the paper).
    */
  val all: Seq[Measure] = Seq(AP, SP, TPRP, FPRP, FNRP, TNRP, PPVP, NPVP, FDRP, FORP)

  // ------------------------------------------------------------------
  // Disparity vs the overall (group-independent) probability — Eq 1 / Eq 3.
  // Both clamp at 0: a group doing *better* than overall is not unfairness.
  // ------------------------------------------------------------------

  /** Subtraction disparity, Eq 1 (Eq 4 for lower-better measures). */
  def subDisparity(overall: Double, group: Double, dir: Direction): Double = dir match {
    case HigherBetter => math.max(0.0, overall - group)
    case LowerBetter  => math.max(0.0, group - overall)
  }

  /** Division disparity, Eq 3 (numerator/denominator swapped for
    * lower-better measures, §3.6).
    */
  def divDisparity(overall: Double, group: Double, dir: Direction): Double = dir match {
    case HigherBetter => if (overall == 0) 0.0 else math.max(0.0, 1.0 - group / overall)
    case LowerBetter  => if (group == 0) 0.0 else math.max(0.0, 1.0 - overall / group)
  }

  // ------------------------------------------------------------------
  // Signed disparity vs a reference group — the convention of Tables 5/6,
  // where the binary-attribute tables report the audited group against the
  // other group: sub = ref − grp (higher-better) or grp − ref (lower-better);
  // div = sub normalized by the lower of the two probabilities.
  // ------------------------------------------------------------------

  def subVsRef(group: Double, ref: Double, dir: Direction): Double = dir match {
    case HigherBetter => ref - group
    case LowerBetter  => group - ref
  }

  /** ±∞ when the lower probability is 0 and the other is not; 0 when both are 0. */
  def divVsRef(group: Double, ref: Double, dir: Direction): Double = {
    val (sub, low) = (subVsRef(group, ref, dir), if (dir == HigherBetter) group else ref)
    if (sub == 0 && low == 0) 0.0 else sub / low
  }
}
