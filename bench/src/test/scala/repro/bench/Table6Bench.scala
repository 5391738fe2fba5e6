package repro.bench

import repro.core.MatcherKind
import repro.eval.Tables

/** Table 6: FacultyMatch — TPR & PPV per country with sub/div disparities.
  * Paper shape: neural matchers discriminate against the cn group on both
  * TPR (44–75 % more FN mistakes, div) and PPV; non-neural matchers are
  * accurate with only mild PPV gaps, except NBMatcher (and LinRegMatcher)
  * whose cn PPV collapses.
  */
class Table6Bench extends TableBench("Table6") {

  private lazy val rows = Tables.table6(spark)

  test("render Table 6") {
    render(Tables.render6(rows))
  }

  test("shape: every neural matcher has lower TPR for the cn group") {
    rows.filter(_.kind == MatcherKind.Neural).foreach { r =>
      assert(r.m1Sub > 0, s"${r.matcher} TPR sub ${r.m1Sub}")
    }
  }

  test("shape: neural TPR disparities are substantial (paper: 0.12-0.31 sub)") {
    val neural = rows.filter(_.kind == MatcherKind.Neural)
    assert(neural.count(_.m1Sub >= 0.08) >= 3,
      neural.map(r => s"${r.matcher}:${r.m1Sub}").mkString(", "))
  }

  test("shape: every neural matcher has lower PPV for the cn group") {
    rows.filter(_.kind == MatcherKind.Neural).foreach { r =>
      assert(r.m2Sub > 0, s"${r.matcher} PPV sub ${r.m2Sub}")
    }
  }

  test("shape: non-neural matchers keep high TPR for both groups") {
    rows.filter(r => r.kind == MatcherKind.NonNeural).foreach { r =>
      assert(r.m1Group > 0.85 && r.m1Ref > 0.85, s"${r.matcher} TPR ${r.m1Group}/${r.m1Ref}")
    }
  }

  test("shape: non-neural TPR disparity is small (roughly fair)") {
    rows.filter(_.kind == MatcherKind.NonNeural).foreach { r =>
      assert(math.abs(r.m1Sub) < 0.15, s"${r.matcher} TPR sub ${r.m1Sub}")
    }
  }

  test("shape: NBMatcher has the worst non-neural cn PPV collapse (paper: 0.03 vs 0.58)") {
    val nn = rows.filter(_.kind == MatcherKind.NonNeural)
    val nb = nn.find(_.matcher == "NBMatcher").get
    assert(nb.m2Sub >= nn.map(_.m2Sub).max - 1e-9, nn.map(r => s"${r.matcher}:${r.m2Sub}").mkString(", "))
    assert(nb.m2Sub > 0.2)
  }

  test("shape: the rule-based matcher's cn precision collapses (proxy reliance)") {
    val brm = rows.find(_.matcher == "BooleanRuleMatcher").get
    assert(brm.m2Sub > 0.2 && brm.m2Group < brm.m2Ref)
  }
}
