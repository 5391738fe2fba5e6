package repro.bench

import repro.core.MatcherKind
import repro.eval.Tables
import repro.matchers.neural.Matchers

/** Table 7: sensitivity of fairness (TPRP / PPVP unfair-group counts) to the
  * matching threshold, as the ℓ2 distance between adjacent thresholds.
  * Paper shape: neural matchers are more threshold-sensitive than non-neural
  * on the structured datasets; the rule-based matcher (binary scores) has
  * zero sensitivity; non-neural sensitivity spikes on Cameras coincide with
  * uselessly low accuracy there.
  */
class Table7Bench extends TableBench("Table7") {

  private lazy val datasets = Tables.table7Datasets(spark)
  private lazy val rows = datasets.flatMap(ds => Tables.sensitivity(ds))

  private def sens(ds: String, m: String): (Double, Double) =
    rows.find(r => r.dataset == ds && r.matcher == m)
      .map(r => (r.tprpSens, r.ppvpSens)).getOrElse((Double.NaN, Double.NaN))

  test("render Table 7") {
    render(Tables.render7(datasets.map(_.name), rows))
  }

  test("shape: the rule-based matcher has zero threshold sensitivity (binary scores)") {
    for (d <- datasets.map(_.name)) {
      val (t, p) = sens(d, "BooleanRuleMatcher")
      assert(t == 0.0 && p == 0.0, s"$d BRM sensitivity $t/$p")
    }
  }

  test("shape: neural matchers are threshold-sensitive somewhere") {
    val neural = Matchers.neural.map(_.name)
    val total = neural.map(m =>
      datasets.map(_.name).map(d => { val (t, p) = sens(d, m); t + p }).sum)
    assert(total.count(_ > 1.0) >= 3, s"neural total sensitivities $total")
  }

  test("shape: on structured data, aggregate neural sensitivity >= non-neural") {
    val neural = Matchers.neural.map(_.name)
    val nonNeural = Seq("DTMatcher", "SVMMatcher", "RFMatcher", "LogRegMatcher",
      "LinRegMatcher", "NBMatcher")
    def agg(ms: Seq[String]): Double =
      (for (d <- Seq("iTunes-Amazon", "DBLP-ACM"); m <- ms; s = sens(d, m)) yield s._1 + s._2).sum / ms.size
    assert(agg(neural) >= agg(nonNeural) - 0.5, s"neural ${agg(neural)} vs non-neural ${agg(nonNeural)}")
  }
}
