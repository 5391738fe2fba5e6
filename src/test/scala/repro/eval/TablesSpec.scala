package repro.eval

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit

import repro.{MLFits, SparkJobs, SparkSpec}
import repro.core._
import repro.core.Fairness.{PPVP, TPRP}
import repro.data.EMBench
import repro.matchers.{DedupeMatcher, DTMatcher, GnemReference, LinRegMatcher, RFMatcher}
import repro.matchers.neural.{DittoSim, GnemSim, Matchers}

/** The fit and cube stores behind the table harnesses: each (dataset
  * instance, matcher value) is fitted, scored and aggregated once, and every
  * row equals the one a fresh fit, score and aggregation per call gives.
  */
class TablesSpec extends SparkSpec {
  import TablesSpec.{Constant, Counting, Nested}

  private lazy val itunes = EMBench.iTunesAmazon(spark)

  /** A copy has an empty store, so each test starts from no fits. */
  private def fresh(): EMDataset = itunes.copy()

  /** Two groups of `scored` where both measures are defined, so rows compare without NaN. */
  private def twoGroups(scored: DataFrame): (String, String) = {
    val Seq(g, ref) = ConfusionCounts.single(scored, 0.5).toSeq
      .filter(_._2.tp > 0).sortBy(-_._2.total).map(_._1).take(2)
    (g, ref)
  }

  /** `m`'s correctness row and social row (`g` against `ref`) on `ds`,
    * computed from its `scored` test split with no store.
    */
  private def unshared(ds: EMDataset, m: Matcher, scored: DataFrame, g: String, ref: String)
      : (Tables.CorrectnessRow, Tables.SocialRow) = {
    val c = ConfusionCounts.overall(scored, Tables.thresholdFor(ds.name))
    val byGroup = ConfusionCounts.single(scored, Tables.thresholdFor(ds.name))
    def v(measure: Fairness.Measure, grp: String): Double = measure.value(byGroup(grp)).get
    val (t1, t2, p1, p2) = (v(TPRP, g), v(TPRP, ref), v(PPVP, g), v(PPVP, ref))
    (Tables.CorrectnessRow(ds.name, m.name, m.kind, Audit.accuracy(c), Audit.f1(c)),
     Tables.SocialRow(m.name, m.kind,
       t1, t2, Fairness.subVsRef(t1, t2, TPRP.direction), Fairness.divVsRef(t1, t2, TPRP.direction),
       p1, p2, Fairness.subVsRef(p1, p2, PPVP.direction), Fairness.divVsRef(p1, p2, PPVP.direction)))
  }

  test("sensitivity, correctness and socialTable share one fit, and each row equals the unshared path") {
    val ds = fresh()
    val fits = new AtomicInteger
    val m = Counting(LinRegMatcher())(fits)

    val scored = LinRegMatcher().fit(ds).scores(ds.test)
    val (g, ref) = twoGroups(scored)

    val sens = Tables.sensitivity(ds, Seq(m))
    val corr = Tables.correctness(ds, Seq(m))
    val social = Tables.socialTable(ds, g, ref, TPRP, PPVP, Seq(m))
    assert(fits.get == 1)

    val results = Audit.sweep(scored, Tables.sweepTaus, measures = Seq(TPRP, PPVP))
    assert(sens == Seq(Tables.SensitivityRow(ds.name, m.name,
      Audit.thresholdSensitivity(results, TPRP), Audit.thresholdSensitivity(results, PPVP))))
    val (corrRow, socialRow) = unshared(ds, m, scored, g, ref)
    assert(corr == Seq(corrRow))
    assert(social == Seq(socialRow))
  }

  test("Ditto's cube and then GNEM's train one LR model, and GNEM's cube runs fewer jobs than GNEM first") {
    val ds = fresh()
    val ((_, afterDitto), trained) = MLFits.trained {
      Tables.correctness(ds, Seq(DittoSim()))
      SparkJobs.count(spark)(Tables.correctness(ds, Seq(GnemSim())))
    }
    assert(trained == Seq("LogisticRegression"))
    val (_, first) = SparkJobs.count(spark)(Tables.correctness(fresh(), Seq(GnemSim())))
    assert(afterDitto.jobs < first.jobs, (afterDitto, first))
  }

  test("GNEM's correctness and social rows through Ditto's fit equal those of its own unshared fit") {
    val ds = fresh()
    val scored = GnemReference.fit(fresh()).scores(ds.test)
    val (g, ref) = twoGroups(scored)
    Tables.correctness(ds, Seq(DittoSim()))
    val (corrRow, socialRow) = unshared(ds, GnemReference, scored, g, ref)
    assert(Tables.correctness(ds, Seq(GnemSim())) == Seq(corrRow))
    assert(Tables.socialTable(ds, g, ref, TPRP, PPVP, Seq(GnemSim())) == Seq(socialRow))
  }

  test("Table 9's 13 matchers on one dataset instance train 11 classifiers: GNEM trains none") {
    val (rows, trained) = MLFits.trained(Tables.correctness(fresh(), Matchers.all))
    assert(rows.size == 13 && rows.forall(!_.acc.isNaN))
    assert(trained.size == 11, trained)
    assert(trained.count(_ == "LogisticRegression") == 5, trained)
  }

  test("a fit that fits other matchers through the store stores each entry once, nested inserts included") {
    val ds = fresh()
    val fits = new AtomicInteger
    // More inserts inside the outer fit than the store's initial capacity holds.
    val inner = (1 to 20).map(i => Counting(Constant(i / 100.0))(fits))
    val outer = Counting(Nested(inner))(fits)
    val f = ds.fitted(outer).get
    assert(fits.get == 21)
    assert(inner.forall(ds.fitted(_).isDefined) && (ds.fitted(outer).get eq f))
    assert(fits.get == 21)
    assert(f.scores(ds.test).filter("score = 0.01").count() == ds.test.count())
  }

  test("a refusal is stored: an equal refusing configuration asked again is not refitted") {
    val ds = fresh()
    val fits = new AtomicInteger
    for (_ <- 1 to 2)
      assert(Tables.correctness(ds, Seq(Counting(DedupeMatcher(maxPairs = 10))(fits))).forall(_.acc.isNaN))
    assert(Tables.sensitivity(ds, Seq(Counting(DedupeMatcher(maxPairs = 10))(fits))).isEmpty)
    assert(fits.get == 1)
  }

  test("matchers are keyed by value: DedupeMatcher() and DedupeMatcher(10) do not share an entry") {
    assert(DedupeMatcher() == DedupeMatcher(20000) && DedupeMatcher() != DedupeMatcher(10))
    assert(RFMatcher() == new RFMatcher && (RFMatcher(): Matcher) != DTMatcher())
    val ds = fresh()
    val fits = new AtomicInteger
    val refused = Tables.correctness(ds, Seq(Counting(DedupeMatcher(10))(fits)))
    val fitted = Tables.correctness(ds, Seq(Counting(DedupeMatcher())(fits)))
    assert(fits.get == 2)
    assert(refused.head.acc.isNaN && !fitted.head.acc.isNaN)
  }

  test("a copy with another split does not reuse the original's entry") {
    val ds = fresh()
    val fits = new AtomicInteger
    val m = Counting(LinRegMatcher())(fits)
    Tables.correctness(ds, Seq(m))
    val half = ds.copy(test = ds.test.filter("id1 % 2 = 0"))
    assert(half.test.count() < ds.test.count())
    Tables.correctness(half, Seq(m))
    assert(fits.get == 2)
    Tables.correctness(ds, Seq(m))
    assert(fits.get == 2)
  }

  test("overview: one aggregation per split gives the row of a count per split and per split's matches") {
    val ds = fresh()
    val (tr, te) = (ds.train.count(), ds.test.count())
    val pos = ds.train.filter("label = 1").count() + ds.test.filter("label = 1").count()
    assert(Tables.overview(ds) ==
      Tables.OverviewRow(ds.name, tr, te, 100.0 * pos / (tr + te), ds.attrs.size, ds.sensitiveAttr))
  }

  test("renderSocial prints an infinite ratio as inf, right-aligned in the ratio's column") {
    def line(div: Double): String = Tables.renderSocial("T", "TPR", "FDR", "Afr", "Cauc",
      Seq(Tables.SocialRow("DTMatcher", MatcherKind.NonNeural, 0.9, 0.9, 0.0, 0.0, 0.06, 0.0, 0.06, div)))
      .linesIterator.toSeq(2)
    assert(line(Double.PositiveInfinity) == line(0.0).stripSuffix("  0.00") + "   inf")
  }

  test("renderSocial prints a disparity that rounds to zero as 0.00, never -0.00") {
    def line(d: Double): String = Tables.renderSocial("T", "TPR", "FDR", "Afr", "Cauc",
      Seq(Tables.SocialRow("BooleanRuleMatcher", MatcherKind.RuleBased, 0.5, 0.5, d, d, 0.92, 0.92, d, d)))
      .linesIterator.toSeq(2)
    assert(line(-1e-9).endsWith("|      0.50      0.50   0.00   0.00 |      0.92      0.92   0.00   0.00"))
    assert(line(-0.006).endsWith("|      0.50      0.50  -0.01  -0.01 |      0.92      0.92  -0.01  -0.01"))
  }

  test("render7 prints a refused cell as -, in columns as wide as the longest matcher name plus two spaces") {
    val rows = Seq(Tables.SensitivityRow("iTunes-Amazon", "DTMatcher", 1.2, 0.0),
      Tables.SensitivityRow("iTunes-Amazon", "BooleanRuleMatcher", 0.0, 0.0),
      Tables.SensitivityRow("Cameras", "DTMatcher", 2.0, 3.5))
    val lines = Tables.render7(Seq("iTunes-Amazon", "Cameras"), rows).linesIterator.toSeq
    def cell(text: String): String = text.padTo("BooleanRuleMatcher".length + 2, ' ')
    assert(lines(2) == f"${"Dataset"}%-15s" + cell("DTMatcher") + "BooleanRuleMatcher  ")
    assert(lines(3) == f"${"iTunes-Amazon"}%-15s" + cell("1.2") + cell("0.0"))
    assert(lines(4) == f"${"Cameras"}%-15s" + cell("2.0") + cell("-"))
    assert(lines(9) == f"${"Cameras"}%-15s" + cell("3.5") + cell("-"))
  }

  test("render9 prints a NaN cell as -, padded like a number cell") {
    val rows = Seq(Tables.CorrectnessRow("Shoes", "Dedupe", MatcherKind.NonNeural, Double.NaN, Double.NaN),
      Tables.CorrectnessRow("Cricket", "Dedupe", MatcherKind.NonNeural, 0.985, 0.5))
    val line = Tables.render9(Seq("Shoes", "Cricket"), rows).linesIterator.toSeq(3)
    assert(line == f"${"Dedupe"}%-20s" + "-".padTo(22, ' ') + "0.99 / 0.50".padTo(22, ' '))
  }

  test("each renderer, on rows with the committed tables' names, prints their reference headers") {
    val datasets = Tables.allDatasets(spark).map(_.name)
    val table7 = Seq("iTunes-Amazon", "Cameras", "DBLP-ACM", "DBLP-Scholar")
    val matchers = Matchers.all
    val social = matchers.map(m => Tables.SocialRow(m.name, m.kind, 0, 0, 0, 0, 0, 0, 0, 0))
    val rendered = Map(
      4 -> Tables.render4(datasets.map(Tables.OverviewRow(_, 0, 0, 0, 0, ""))),
      5 -> Tables.render5(social),
      6 -> Tables.render6(social),
      7 -> Tables.render7(table7, for (d <- table7; m <- matchers) yield Tables.SensitivityRow(d, m.name, 0, 0)),
      9 -> Tables.render9(datasets, for (d <- datasets; m <- matchers) yield Tables.CorrectnessRow(d, m.name, m.kind, 0, 0)))
    // Every line but the data lines, which begin with a dataset or matcher name.
    def headers(text: String): Seq[String] = text.linesIterator
      .filterNot(l => (datasets ++ matchers.map(_.name)).exists(n => l.startsWith(n + " "))).toSeq
    for ((n, text) <- rendered) {
      val reference = new String(Files.readAllBytes(Paths.get("bench", "reference", s"Table$n.txt")), UTF_8)
      assert(headers(text) == headers(reference), s"Table $n")
    }
  }

  test("every table picks its datasets from one list per session") {
    val all = Tables.allDatasets(spark)
    assert(Tables.allDatasets(spark) eq all)
    assert(all.map(_.name) == Seq("FacultyMatch", "NoFlyCompas", "iTunes-Amazon", "DBLP-ACM",
      "DBLP-Scholar", "Cricket", "Shoes", "Cameras"))
    assert(Tables.table7Datasets(spark).forall(d => all.exists(_ eq d)))
  }
}

object TablesSpec {

  /** Delegates to `inner` and counts its fits; equal iff the inner matchers are. */
  final case class Counting(inner: Matcher)(val fits: AtomicInteger) extends Matcher {
    def name: String = inner.name
    def kind: MatcherKind = inner.kind
    def fit(ds: EMDataset): FittedMatcher = { fits.incrementAndGet(); inner.fit(ds) }
  }

  /** Trains nothing: every pair scores `score`. */
  final case class Constant(score: Double) extends Matcher {
    def name: String = s"Constant($score)"
    def kind: MatcherKind = MatcherKind.NonNeural
    def fit(ds: EMDataset): FittedMatcher = pairs => pairs.withColumn("score", lit(score))
  }

  /** Fits each of `inner` through the store during its own fit, and scores
    * as the first of them.
    */
  final case class Nested(inner: Seq[Matcher]) extends Matcher {
    def name: String = "Nested"
    def kind: MatcherKind = MatcherKind.NonNeural
    def fit(ds: EMDataset): FittedMatcher = inner.map(ds.fitted(_).get).head
  }
}
