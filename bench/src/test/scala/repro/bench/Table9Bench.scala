package repro.bench

import repro.core.MatcherKind
import repro.eval.Tables

/** Table 9 (appendix; summarized in §5.3.1): overall correctness — Accuracy
  * and F-1 of all 13 matchers across all 8 datasets. Prints the paper-layout
  * matrix and asserts the qualitative shape the paper reports.
  */
class Table9Bench extends TableBench("Table9") {

  private lazy val datasets = Tables.allDatasets(spark)
  private lazy val rows = datasets.flatMap(ds => Tables.correctness(ds))

  private def f1(ds: String, m: String): Double =
    rows.find(r => r.dataset == ds && r.matcher == m).map(_.f1).getOrElse(Double.NaN)

  test("render Table 9") {
    render(Tables.render9(datasets.map(_.name), rows))
  }

  test("shape: non-neural matchers fail on textual data (F-1 near zero)") {
    val nn = Seq("DTMatcher", "SVMMatcher", "RFMatcher", "LogRegMatcher", "LinRegMatcher", "NBMatcher")
    for (d <- Seq("Shoes", "Cameras")) {
      val f1s = nn.map(m => f1(d, m))
      assert(f1s.count(_ < 0.5) >= 4, s"$d non-neural F1s: $f1s")
    }
  }

  test("shape: neural matchers work on textual data") {
    val neural = Seq("DeepMatcher", "Ditto", "HierMatcher", "MCAN")
    for (d <- Seq("Shoes", "Cameras")) {
      val f1s = neural.map(m => f1(d, m))
      assert(f1s.count(_ > 0.5) >= 3, s"$d neural F1s: $f1s")
    }
  }

  test("shape: neural matchers beat non-neural on textual data") {
    for (d <- Seq("Shoes", "Cameras")) {
      val neuralBest = Seq("DeepMatcher", "Ditto", "HierMatcher", "MCAN").map(m => f1(d, m)).max
      val nnBest = Seq("DTMatcher", "SVMMatcher", "RFMatcher", "LogRegMatcher",
        "LinRegMatcher", "NBMatcher").map(m => f1(d, m)).max
      assert(neuralBest > nnBest, s"$d: neural $neuralBest vs non-neural $nnBest")
    }
  }

  test("shape: non-neural matchers at least match neural on structured data") {
    for (d <- Seq("iTunes-Amazon", "DBLP-ACM")) {
      val nnBest = Seq("DTMatcher", "RFMatcher", "LogRegMatcher", "SVMMatcher").map(m => f1(d, m)).max
      val neuralBest = Seq("DeepMatcher", "Ditto", "HierMatcher", "MCAN").map(m => f1(d, m)).max
      assert(nnBest >= neuralBest - 0.05, s"$d: non-neural $nnBest vs neural $neuralBest")
    }
  }

  test("shape: social datasets — non-neural nearly perfect, neural behind") {
    for (d <- Seq("FacultyMatch", "NoFlyCompas")) {
      val nn = Seq("DTMatcher", "SVMMatcher", "RFMatcher", "LogRegMatcher").map(m => f1(d, m))
      assert(nn.forall(_ > 0.85), s"$d non-neural F1s: $nn")
      val neural = Seq("DeepMatcher", "Ditto", "HierMatcher", "MCAN").map(m => f1(d, m))
      assert(neural.forall(_ < 0.95), s"$d neural F1s: $neural")
    }
  }

  test("shape: Dedupe refuses the four datasets the paper reports it cannot scale to") {
    for (d <- Seq("FacultyMatch", "NoFlyCompas", "Shoes", "Cameras"))
      assert(f1(d, "Dedupe").isNaN, s"Dedupe should refuse $d")
  }
  test("shape: Dedupe runs on the other four datasets") {
    for (d <- Seq("iTunes-Amazon", "DBLP-ACM", "DBLP-Scholar", "Cricket"))
      assert(!f1(d, "Dedupe").isNaN, s"Dedupe should handle $d")
  }

  test("shape: BooleanRuleMatcher is weak everywhere (max F-1 well below ML matchers)") {
    val brm = datasets.map(ds => f1(ds.name, "BooleanRuleMatcher"))
    assert(brm.count(_ < 0.6) >= 6, s"BRM F1s: $brm")
  }

  test("shape: GNEM is the weakest neural matcher on DBLP-ACM (one-to-set competition backfires)") {
    val gnem = f1("DBLP-ACM", "GNEM")
    val others = Seq("DeepMatcher", "Ditto", "HierMatcher", "MCAN").map(m => f1("DBLP-ACM", m))
    assert(gnem <= others.min + 1e-9, s"GNEM $gnem vs others $others")
    assert(gnem < 0.97, s"GNEM DBLP-ACM F1 $gnem")
  }

  test("shape: Cricket — ML matchers reach high F-1, BRM totally fails") {
    val ml = Seq("RFMatcher", "LogRegMatcher", "Ditto", "MCAN").map(m => f1("Cricket", m))
    assert(ml.forall(_ > 0.8), s"Cricket ML F1s: $ml")
    assert(f1("Cricket", "BooleanRuleMatcher") < 0.2)
  }
}
