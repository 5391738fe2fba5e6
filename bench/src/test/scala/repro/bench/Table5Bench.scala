package repro.bench

import repro.core.MatcherKind
import repro.eval.Tables

/** Table 5: NoFlyCompas — TPR & FDR per race with sub/div disparities.
  * Paper shape: non-neural ~perfect; neural FDR disadvantages the
  * African-American group (the over-representation + common-surname
  * condition); rule-based matcher has very low precision.
  */
class Table5Bench extends TableBench("Table5") {

  private lazy val rows = Tables.table5(spark)

  test("render Table 5") {
    render(Tables.render5(rows))
  }

  test("shape: non-neural matchers are near-perfect (TPR ~1, FDR ~0)") {
    val nn = rows.filter(r => r.kind == MatcherKind.NonNeural)
    assert(nn.nonEmpty)
    nn.foreach { r =>
      assert(r.m1Group > 0.9 && r.m1Ref > 0.9, s"${r.matcher} TPR ${r.m1Group}/${r.m1Ref}")
      assert(r.m2Group < 0.2 && r.m2Ref < 0.2, s"${r.matcher} FDR ${r.m2Group}/${r.m2Ref}")
    }
  }

  test("shape: neural matchers make substantial false-discovery errors") {
    val neural = rows.filter(_.kind == MatcherKind.Neural)
    assert(neural.count(r => math.max(r.m2Group, r.m2Ref) > 0.1) >= 3,
      neural.map(r => s"${r.matcher}:${r.m2Group}").mkString(", "))
  }

  test("shape: a majority of neural matchers have higher FDR for African-Americans") {
    val neural = rows.filter(_.kind == MatcherKind.Neural)
    val afrWorse = neural.count(_.m2Sub > 0)
    assert(afrWorse >= 3, neural.map(r => s"${r.matcher}:${r.m2Sub}").mkString(", "))
  }

  test("shape: at least one neural matcher crosses the 20% unfairness threshold on FDR") {
    val neural = rows.filter(_.kind == MatcherKind.Neural)
    assert(neural.exists(r => r.m2Div > 0.2),
      neural.map(r => s"${r.matcher}:div=${r.m2Div}").mkString(", "))
  }

  test("shape: TPR differences between groups stay small for neural matchers") {
    rows.filter(_.kind == MatcherKind.Neural).foreach { r =>
      assert(math.abs(r.m1Sub) < 0.25, s"${r.matcher} TPR sub ${r.m1Sub}")
    }
  }

  test("shape: the rule-based matcher floods with FPs (paper F-1 0.14)") {
    val brm = rows.find(_.matcher == "BooleanRuleMatcher").get
    assert(brm.m2Group > 0.5 && brm.m2Ref > 0.5)
  }
}
