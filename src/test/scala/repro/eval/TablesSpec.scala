package repro.eval

import java.util.concurrent.atomic.AtomicInteger

import repro.SparkSpec
import repro.core._
import repro.core.Fairness.{PPVP, TPRP}
import repro.data.EMBench
import repro.matchers.{DedupeMatcher, DTMatcher, LinRegMatcher, RFMatcher}

/** The cube store behind the table harnesses: each (dataset instance,
  * matcher value) is fitted, scored and aggregated once, and every row equals
  * the one a fresh fit, score and aggregation per call gives.
  */
class TablesSpec extends SparkSpec {
  import TablesSpec.Counting

  private lazy val itunes = EMBench.iTunesAmazon(spark)

  /** A copy has an empty store, so each test starts from no fits. */
  private def fresh(): EMDataset = itunes.copy()

  test("sensitivity, correctness and socialTable share one fit, and each row equals the unshared path") {
    val ds = fresh()
    val fits = new AtomicInteger
    val m = Counting(LinRegMatcher())(fits)

    val scored = LinRegMatcher().fit(ds).scores(ds.test)
    val byGroup = ConfusionCounts.single(scored, 0.5)
    // Two groups where both measures are defined, so rows compare without NaN.
    val Seq(g, ref) = byGroup.toSeq.filter(_._2.tp > 0).sortBy(-_._2.total).map(_._1).take(2)

    val sens = Tables.sensitivity(ds, Seq(m))
    val corr = Tables.correctness(ds, Seq(m))
    val social = Tables.socialTable(ds, g, ref, TPRP, PPVP, Seq(m))
    assert(fits.get == 1)

    val results = Audit.sweep(scored, Tables.sweepTaus, measures = Seq(TPRP, PPVP))
    assert(sens == Seq(Tables.SensitivityRow(ds.name, m.name,
      Audit.thresholdSensitivity(results, TPRP), Audit.thresholdSensitivity(results, PPVP))))
    val c = ConfusionCounts.overall(scored, Tables.thresholdFor(ds.name))
    assert(corr == Seq(Tables.CorrectnessRow(ds.name, m.name, m.kind, Audit.accuracy(c), Audit.f1(c))))
    def v(measure: Fairness.Measure, grp: String): Double = measure.value(byGroup(grp)).get
    val (t1, t2, p1, p2) = (v(TPRP, g), v(TPRP, ref), v(PPVP, g), v(PPVP, ref))
    assert(social == Seq(Tables.SocialRow(m.name, m.kind,
      t1, t2, Fairness.subVsRef(t1, t2, TPRP.direction), Fairness.divVsRef(t1, t2, TPRP.direction),
      p1, p2, Fairness.subVsRef(p1, p2, PPVP.direction), Fairness.divVsRef(p1, p2, PPVP.direction))))
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
}
