package repro.eval

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core._
import repro.data.{EMBench, Social}
import repro.matchers.neural.Matchers

/** Harnesses that recompute the paper's evaluation tables (5, 6, 7, 9 — plus
  * the Table 4 dataset overview) on the synthetic substrate. Each harness
  * returns structured rows, and one renderer per table (`render4` …
  * `render9`) prints them in the layout the paper reports; the bench suites
  * and the `repro.jobs.Tables` main print through them, and
  * `bench/reference/Table<N>.txt` holds their text. EXPERIMENTS.md records
  * paper-vs-measured side by side.
  *
  * Every harness reads the confusion cube of a (dataset instance, matcher)
  * from one store: the matcher is fitted ([[EMDataset.fitted]]), its test
  * split scored and the scores aggregated over [[taus]] once, whichever
  * tables ask for it.
  */
object Tables {

  /** Default matching threshold (§5.1.4): 0.5 everywhere except Cricket. */
  def thresholdFor(dsName: String): Double = if (dsName == "Cricket") 0.9 else 0.5

  /** The τ grid of Figure 14 (0.30 … 0.95). */
  val sweepTaus: Seq[Double] = (6 to 19).map(_ * 0.05)

  /** Every threshold a table reads: the Figure 14 grid and [[thresholdFor]]'s. */
  val taus: Seq[Double] = (sweepTaus ++ Seq(0.5, 0.9)).distinct

  /** The cube of `m`'s test scores on `ds` over [[taus]], built on the first
    * call for this dataset instance and matcher value and read back after;
    * None when the matcher refuses the dataset ([[EMDataset.fitted]]). A
    * score's bucket is monotone in τ, so the cube gives the same counts at
    * each τ as a cube over that τ alone.
    */
  private def cube(ds: EMDataset, m: Matcher): Option[ConfusionCube] =
    ds.synchronized(ds.cubes.getOrElseUpdate(m, ds.fitted(m).map(f => ConfusionCube(f.scores(ds.test), taus))))

  // ------------------------------------------------------------------
  // Tables 5 & 6: social-dataset audits
  // ------------------------------------------------------------------

  /** One matcher's row in a social table: two per-group probabilities for
    * each of two measures, with signed sub/div disparities vs the reference
    * (advantaged) group — the Tables 5/6 layout.
    */
  final case class SocialRow(
      matcher: String, kind: MatcherKind,
      m1Group: Double, m1Ref: Double, m1Sub: Double, m1Div: Double,
      m2Group: Double, m2Ref: Double, m2Sub: Double, m2Div: Double)

  /** One row per matcher that accepts `ds`, at its default threshold
    * ([[thresholdFor]]: 0.5 on both social datasets).
    */
  def socialTable(
      ds: EMDataset,
      auditedGroup: String, referenceGroup: String,
      measure1: Fairness.Measure, measure2: Fairness.Measure,
      matchers: Seq[Matcher] = Matchers.all): Seq[SocialRow] = {
    matchers.flatMap { m =>
      cube(ds, m).map { c =>
        val byGroup = c.counts(thresholdFor(ds.name), Lens.Single(1))
        def v(measure: Fairness.Measure, g: String): Double =
          byGroup.get(g).flatMap(measure.value).getOrElse(Double.NaN)
        val (g1, r1) = (v(measure1, auditedGroup), v(measure1, referenceGroup))
        val (g2, r2) = (v(measure2, auditedGroup), v(measure2, referenceGroup))
        SocialRow(m.name, m.kind,
          g1, r1, Fairness.subVsRef(g1, r1, measure1.direction),
          Fairness.divVsRef(g1, r1, measure1.direction),
          g2, r2, Fairness.subVsRef(g2, r2, measure2.direction),
          Fairness.divVsRef(g2, r2, measure2.direction))
      }
    }
  }

  /** Table 5: NoFlyCompas — TPR and FDR for African-American vs Caucasian. */
  def table5(spark: SparkSession, matchers: Seq[Matcher] = Matchers.all): Seq[SocialRow] =
    socialTable(dataset(spark, "NoFlyCompas"), "African-American", "Caucasian",
      Fairness.TPRP, Fairness.FDRP, matchers)

  /** Table 6: FacultyMatch — TPR and PPV for cn vs de. */
  def table6(spark: SparkSession, matchers: Seq[Matcher] = Matchers.all): Seq[SocialRow] =
    socialTable(dataset(spark, "FacultyMatch"), "cn", "de",
      Fairness.TPRP, Fairness.PPVP, matchers)

  /** Table 5's text: NoFlyCompas, African-American against Caucasian. */
  def render5(rows: Seq[SocialRow]): String =
    renderSocial("Table 5: NoFlyCompas", "TPR", "FDR", "Afr", "Cauc", rows)

  /** Table 6's text: FacultyMatch, cn against de. */
  def render6(rows: Seq[SocialRow]): String =
    renderSocial("Table 6: FacultyMatch", "TPR", "PPV", "cn", "de", rows)

  def renderSocial(title: String, h1: String, h2: String,
                   g: String, ref: String, rows: Seq[SocialRow]): String = {
    val sb = new StringBuilder
    sb ++= f"== $title ==%n"
    sb ++= f"${"Matcher"}%-20s | $h1%4s($g) $h1%4s($ref)   sub    div | $h2%4s($g) $h2%4s($ref)   sub    div%n"
    // A disparity that rounds to zero is a tie: 0.00, never -0.00.
    def num(d: Double): String = f"$d%6.2f".replace("-0.00", " 0.00")
    // An infinite ratio (the lower probability is 0) prints as inf.
    def div(d: Double): String = if (d.isInfinite) f"${if (d > 0) "inf" else "-inf"}%6s" else num(d)
    for (r <- rows)
      sb ++= f"${r.matcher}%-20s | ${r.m1Group}%9.2f ${r.m1Ref}%9.2f ${num(r.m1Sub)} ${div(r.m1Div)} | ${r.m2Group}%9.2f ${r.m2Ref}%9.2f ${num(r.m2Sub)} ${div(r.m2Div)}%n"
    sb.toString
  }

  // ------------------------------------------------------------------
  // Table 7: threshold sensitivity
  // ------------------------------------------------------------------

  final case class SensitivityRow(dataset: String, matcher: String,
                                  tprpSens: Double, ppvpSens: Double)

  /** Threshold sensitivity of each matcher on one dataset: ℓ2 distance on the
    * unfair-group counts between adjacent thresholds, for TPRP and PPVP.
    */
  def sensitivity(ds: EMDataset, matchers: Seq[Matcher] = Matchers.all): Seq[SensitivityRow] =
    matchers.flatMap { m =>
      cube(ds, m).map { c =>
        val results = sweepTaus.map(
          Audit.fromCube(c, _, Lens.Single(1), Seq(Fairness.TPRP, Fairness.PPVP)))
        SensitivityRow(ds.name, m.name,
          Audit.thresholdSensitivity(results, Fairness.TPRP),
          Audit.thresholdSensitivity(results, Fairness.PPVP))
      }
    }

  /** Table 7's text: one block per measure, a line per dataset in
    * `datasets` and a column per matcher of `rows`, each column as wide as
    * the longest matcher name plus two spaces. A refused cell (no row, as
    * Dedupe on Cameras) prints `-`, as in Table 9.
    */
  def render7(datasets: Seq[String], rows: Seq[SensitivityRow]): String = {
    val matchers = rows.map(_.matcher).distinct
    val width = matchers.map(_.length).max + 2
    def cell(text: String): String = text.padTo(width, ' ')
    val sb = new StringBuilder
    for (measure <- Seq("TPRP", "PPVP")) {
      sb ++= f"%n== Table 7 ($measure sensitivity) ==%n"
      sb ++= f"${"Dataset"}%-15s" + matchers.map(cell).mkString + f"%n"
      for (d <- datasets) {
        sb ++= f"$d%-15s"
        for (m <- matchers) {
          val v = rows.find(r => r.dataset == d && r.matcher == m)
            .map(r => if (measure == "TPRP") r.tprpSens else r.ppvpSens)
          sb ++= cell(v.fold("-")(x => f"$x%.1f"))
        }
        sb ++= f"%n"
      }
    }
    sb.toString
  }

  /** Table 7 datasets: iTunes-Amazon, Cameras, DBLP-ACM, DBLP-Scholar. */
  def table7Datasets(spark: SparkSession): Seq[EMDataset] =
    Seq("iTunes-Amazon", "Cameras", "DBLP-ACM", "DBLP-Scholar").map(dataset(spark, _))

  // ------------------------------------------------------------------
  // Table 9: overall correctness
  // ------------------------------------------------------------------

  final case class CorrectnessRow(dataset: String, matcher: String, kind: MatcherKind,
                                  acc: Double, f1: Double)

  def correctness(ds: EMDataset, matchers: Seq[Matcher] = Matchers.all): Seq[CorrectnessRow] = {
    val tau = thresholdFor(ds.name)
    matchers.map { m =>
      cube(ds, m) match {
        case Some(cb) =>
          val c = cb.overall(tau)
          CorrectnessRow(ds.name, m.name, m.kind, Audit.accuracy(c), Audit.f1(c))
        case None => CorrectnessRow(ds.name, m.name, m.kind, Double.NaN, Double.NaN)
      }
    }
  }

  /** Table 9's text: a line per matcher of `rows` and an `Acc / F-1` column
    * per dataset in `datasets`; a refused cell (NaN) prints `-`.
    */
  def render9(datasets: Seq[String], rows: Seq[CorrectnessRow]): String = {
    val sb = new StringBuilder
    sb ++= f"%n== Table 9: Overall performance (Acc / F-1) ==%n"
    sb ++= f"${"Matcher"}%-20s" + datasets.map(n => f"$n%-22s").mkString + f"%n"
    for (m <- rows.map(_.matcher).distinct) {
      sb ++= f"$m%-20s"
      for (d <- datasets) {
        val r = rows.find(r => r.dataset == d && r.matcher == m).get
        sb ++= (if (r.acc.isNaN) f"${"-"}%-22s" else f"${f"${r.acc}%.2f / ${r.f1}%.2f"}%-22s")
      }
      sb ++= f"%n"
    }
    sb.toString
  }

  /** All eight datasets in Table 4 order, built once per session: every table
    * reads the same instances, and so the same cubes.
    */
  def allDatasets(spark: SparkSession): Seq[EMDataset] = synchronized {
    shared match {
      case Some((s, dss)) if s eq spark => dss
      case _ =>
        val dss = Seq(Social.facultyMatch(spark), Social.noFlyCompas(spark)) ++ EMBench.all(spark)
        shared = Some((spark, dss))
        dss
    }
  }

  /** The latest session's datasets; a new session replaces them. */
  private var shared: Option[(SparkSession, Seq[EMDataset])] = None

  private def dataset(spark: SparkSession, name: String): EMDataset =
    allDatasets(spark).find(_.name == name).get

  // ------------------------------------------------------------------
  // Table 4: dataset overview
  // ------------------------------------------------------------------

  final case class OverviewRow(dataset: String, train: Long, test: Long,
                               posPct: Double, nAttrs: Int, sensAttr: String)

  def overview(ds: EMDataset): OverviewRow = {
    // One count per split: its pairs and its matches.
    def counts(split: DataFrame): (Long, Long) = {
      val byLabel = Counts.by(split, col("label"))
      (byLabel.values.sum, byLabel.getOrElse(Row(1), 0L))
    }
    val ((tr, trPos), (te, tePos)) = (counts(ds.train), counts(ds.test))
    OverviewRow(ds.name, tr, te, 100.0 * (trPos + tePos) / (tr + te), ds.attrs.size, ds.sensitiveAttr)
  }

  /** Table 4's text: a line per dataset. */
  def render4(rows: Seq[OverviewRow]): String = {
    val sb = new StringBuilder
    sb ++= f"%n== Table 4: Dataset overview (repo scale) ==%n"
    sb ++= f"${"Name"}%-15s ${"Train"}%8s ${"Test"}%8s ${"%Pos"}%7s ${"#Attr"}%6s  Sens. Attr%n"
    for (r <- rows)
      sb ++= f"${r.dataset}%-15s ${r.train}%8d ${r.test}%8d ${r.posPct}%6.2f%% ${r.nAttrs}%6d  ${r.sensAttr}%n"
    sb.toString
  }
}
