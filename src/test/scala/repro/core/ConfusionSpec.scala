package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.{AnyOperators, propBoolean}
import org.scalacheck.rng.Seed

import repro.{SparkSpec, TestPairs, Oracle}

/** Confusion aggregation under single/pairwise lenses, including the
  * Appendix B worked example and DuckDB oracle cross-checks.
  */
class ConfusionSpec extends SparkSpec {

  private lazy val appB = TestPairs.appendixB(spark)

  test("overall confusion of the Appendix B example") {
    assert(ConfusionCounts.overall(appB, 0.5) == Confusion(1, 1, 1, 1))
  }

  test("Appendix B: confusion matrix of g1 (Figure 15b)") {
    val m = ConfusionCounts.single(appB, 0.5)
    assert(m("g1") == Confusion(1, 1, 1, 1))
  }
  test("Appendix B: confusion matrix of g2 (Figure 15c)") {
    val m = ConfusionCounts.single(appB, 0.5)
    assert(m("g2") == Confusion(0, 0, 1, 1))
  }
  test("single lens counts a pair once even when both records are in the group") {
    // pair (1,2) has g1 on both sides; total over g1 must be 4, not 5
    assert(ConfusionCounts.single(appB, 0.5)("g1").total == 4)
  }
  test("single lens legitimacy: pair counted for either side's group") {
    val m = ConfusionCounts.single(appB, 0.5)
    assert(m("g2").total == 2) // pairs (3,4) and (2,3)
  }

  test("pairwise lens keys are unordered") {
    val m = ConfusionCounts.pairwise(appB, 0.5)
    assert(m.contains("g1|g2") && !m.contains("g2|g1"))
  }
  test("pairwise lens of Appendix B example") {
    val m = ConfusionCounts.pairwise(appB, 0.5)
    assert(m("g1|g1") == Confusion(1, 1, 0, 0)) // pairs (1,2) FP and (1,4) TP
    assert(m("g1|g2") == Confusion(0, 0, 1, 1)) // pairs (3,4) TN and (2,3) FN
  }

  test("thresholding: score >= tau is a match") {
    val df = TestPairs.scored(spark, Seq(
      (1L, 2L, Seq("a"), Seq("a"), 1, 0.5),
      (3L, 4L, Seq("a"), Seq("a"), 1, 0.49)))
    assert(ConfusionCounts.overall(df, 0.5) == Confusion(1, 0, 0, 1))
    assert(ConfusionCounts.overall(df, 0.4) == Confusion(2, 0, 0, 0))
    assert(ConfusionCounts.overall(df, 0.6) == Confusion(0, 0, 0, 2))
  }

  test("setwise groups: a multi-genre record contributes to every genre") {
    val df = TestPairs.scored(spark, Seq(
      (1L, 2L, Seq("Pop", "Rock"), Seq("Jazz"), 1, 1.0)))
    val m = ConfusionCounts.single(df, 0.5)
    assert(m.keySet == Set("Pop", "Rock", "Jazz"))
    assert(m.values.forall(_ == Confusion(1, 0, 0, 0)))
  }
  test("setwise pairwise: all cross combinations, deduplicated") {
    val df = TestPairs.scored(spark, Seq(
      (1L, 2L, Seq("Pop", "Rock"), Seq("Pop"), 0, 1.0)))
    val m = ConfusionCounts.pairwise(df, 0.5)
    assert(m.keySet == Set("Pop|Pop", "Pop|Rock"))
    assert(m("Pop|Rock").fp == 1)
  }

  test("pairwise lens counts genuinely repeated pairs, as single and overall do") {
    val row = (1L, 2L, Seq("a"), Seq("b"), 1, 1.0)
    val df = TestPairs.scored(spark, Seq(row, row))
    assert(ConfusionCounts.pairwise(df, 0.5) == Map("a|b" -> Confusion(2, 0, 0, 0)))
    assert(ConfusionCounts.single(df, 0.5)("a") == Confusion(2, 0, 0, 0))
    assert(ConfusionCounts.overall(df, 0.5) == Confusion(2, 0, 0, 0))
  }

  test("an empty frame counts nothing") {
    val df = TestPairs.scored(spark, Nil)
    assert(ConfusionCounts.overall(df, 0.5) == Confusion(0, 0, 0, 0))
    assert(ConfusionCounts.single(df, 0.5).isEmpty && ConfusionCounts.pairwise(df, 0.5).isEmpty)
  }

  test("forSubgroup restricts to legitimate pairs of a level-2 subgroup") {
    val df = TestPairs.scored(spark, Seq(
      (1L, 2L, Seq("Pop", "Female"), Seq("Jazz"), 1, 1.0),
      (3L, 4L, Seq("Pop", "Male"), Seq("Jazz"), 1, 1.0)))
    val sg = GroupEncoding.Subgroup(Set("Pop", "Female"))
    assert(ConfusionCounts.forSubgroup(df, 0.5, sg) == Confusion(1, 0, 0, 0))
  }
  test("forSubgroup of an absent subgroup is empty") {
    val df = TestPairs.scored(spark, Seq((1L, 2L, Seq("a"), Seq("b"), 1, 1.0)))
    assert(ConfusionCounts.forSubgroup(df, 0.5, GroupEncoding.Subgroup(Set("zz"))).total == 0)
  }

  // ---- DuckDB oracle cross-checks ----

  test("oracle: single-lens per-group confusion matches DuckDB aggregation") {
    import org.apache.spark.sql.functions._
    val rnd = new scala.util.Random(11)
    val rows = (0 until 300).map { i =>
      val gl = if (rnd.nextBoolean()) "x" else "y"
      val gr = if (rnd.nextBoolean()) "x" else "y"
      (i.toLong, (1000 + i).toLong, Seq(gl), Seq(gr), rnd.nextInt(2), rnd.nextDouble())
    }
    val df = TestPairs.scored(spark, rows)
    val m = ConfusionCounts.single(df, 0.5)
    val sparkRes = spark.createDataFrame(
      m.toSeq.map { case (g, c) => (g, c.tp, c.fp, c.tn, c.fn) }
    ).toDF("grp", "tp", "fp", "tn", "fn")
    // Hand-exploded flat table for DuckDB (singleton groups).
    val flat = df
      .withColumn("pred", when(col("score") >= 0.5, 1).otherwise(0))
      .select(col("g1").getItem(0).as("gl"), col("g2").getItem(0).as("gr"),
              col("pred"), col("label"))
    Oracle.assertEquivalent(
      sparkRes,
      """SELECT g AS grp,
          sum(CASE WHEN pred='1' AND label='1' THEN 1 ELSE 0 END) AS tp,
          sum(CASE WHEN pred='1' AND label='0' THEN 1 ELSE 0 END) AS fp,
          sum(CASE WHEN pred='0' AND label='0' THEN 1 ELSE 0 END) AS tn,
          sum(CASE WHEN pred='0' AND label='1' THEN 1 ELSE 0 END) AS fn
        FROM (
          SELECT gl AS g, pred, label FROM flat
          UNION ALL
          SELECT gr AS g, pred, label FROM flat WHERE gr <> gl
        ) GROUP BY g""",
      "flat" -> flat)
  }

  test("oracle: overall confusion matches DuckDB") {
    import org.apache.spark.sql.functions._
    val rnd = new scala.util.Random(13)
    val rows = (0 until 200).map { i =>
      (i.toLong, (1000 + i).toLong, Seq("g"), Seq("g"), rnd.nextInt(2), rnd.nextDouble())
    }
    val df = TestPairs.scored(spark, rows)
    val c = ConfusionCounts.overall(df, 0.7)
    val sparkRes = spark.createDataFrame(Seq((c.tp, c.fp, c.tn, c.fn))).toDF("tp", "fp", "tn", "fn")
    val flat = df.withColumn("pred", when(col("score") >= 0.7, 1).otherwise(0))
      .select("pred", "label")
    Oracle.assertEquivalent(
      sparkRes,
      """SELECT
          sum(CASE WHEN pred='1' AND label='1' THEN 1 ELSE 0 END) AS tp,
          sum(CASE WHEN pred='1' AND label='0' THEN 1 ELSE 0 END) AS fp,
          sum(CASE WHEN pred='0' AND label='0' THEN 1 ELSE 0 END) AS tn,
          sum(CASE WHEN pred='0' AND label='1' THEN 1 ELSE 0 END) AS fn
        FROM flat""",
      "flat" -> flat)
  }

  test("oracle: pairwise lens over setwise groups matches DuckDB at three thresholds") {
    val rnd = new scala.util.Random(17)
    val universe = Seq("a", "b", "c", "d")
    val taus = Seq(0.25, 0.5, 0.75)
    def groups(): Seq[String] = rnd.shuffle(universe).take(rnd.nextInt(4))
    // Scores on a 1/8 grid: exact in text, and tied with every τ.
    val rows = (0 until 300).map { _ =>
      (rnd.nextInt(40).toLong, rnd.nextInt(40).toLong, groups(), groups(), rnd.nextInt(2), rnd.nextInt(9) / 8.0)
    }
    val cube = ConfusionCube(TestPairs.scored(spark, rows), taus)
    val sparkRes = spark.createDataFrame(
      for (t <- taus; (k, c) <- cube.counts(t, Lens.Pairwise.keys).toSeq) yield (t, k, c.tp, c.fp, c.tn, c.fn)
    ).toDF("tau", "grp", "tp", "fp", "tn", "fn")
    // One row per (pair, side, group), flattened in plain Scala.
    val flat = spark.createDataFrame(rows.zipWithIndex.flatMap { case ((_, _, g1, g2, y, s), p) =>
      g1.map((p, 1, _, y, s)) ++ g2.map((p, 2, _, y, s))
    }).toDF("pair", "side", "grp", "label", "score")
    Oracle.assertEquivalent(
      sparkRes,
      """WITH f AS (
           SELECT CAST(pair AS INT) AS pair, CAST(side AS INT) AS side, grp,
                  CAST(label AS INT) AS label, CAST(score AS DOUBLE) AS score FROM flat),
         k AS (
           SELECT DISTINCT l.pair, least(l.grp, r.grp) || '|' || greatest(l.grp, r.grp) AS grp,
                  l.label, l.score
           FROM f l JOIN f r ON l.pair = r.pair AND l.side = 1 AND r.side = 2)
        SELECT t.tau AS tau, grp,
          sum(CASE WHEN score >= t.tau AND label = 1 THEN 1 ELSE 0 END) AS tp,
          sum(CASE WHEN score >= t.tau AND label = 0 THEN 1 ELSE 0 END) AS fp,
          sum(CASE WHEN score <  t.tau AND label = 0 THEN 1 ELSE 0 END) AS tn,
          sum(CASE WHEN score <  t.tau AND label = 1 THEN 1 ELSE 0 END) AS fn
        FROM k CROSS JOIN (VALUES (0.25), (0.5), (0.75)) t(tau)
        GROUP BY t.tau, grp""",
      "flat" -> flat)
  }

  // ---- Cube vs brute force over the input rows ----

  private type Pair = (Long, Long, Seq[String], Seq[String], Int, Double)

  /** Reference: the confusion of the `legit` pairs at `tau`, by direct count. */
  private def bruteForce(rows: Seq[Pair], tau: Double)(legit: Pair => Boolean): Confusion =
    rows.filter(legit).foldLeft(Confusion(0, 0, 0, 0)) { case (c, (_, _, _, _, y, s)) =>
      val m = s >= tau
      def one(b: Boolean): Long = if (b) 1 else 0
      c + Confusion(one(m && y == 1), one(m && y == 0), one(!m && y == 0), one(!m && y == 1))
    }

  /** Reference per key, over the keys at least one pair is legitimate for. */
  private def bruteByKey(rows: Seq[Pair], tau: Double, keys: Seq[String])(
      legit: (Pair, String) => Boolean): Map[String, Confusion] =
    keys.filter(k => rows.exists(legit(_, k))).map(k => k -> bruteForce(rows, tau)(legit(_, k))).toMap

  test("property: every cube projection equals a brute-force count at every threshold") {
    val universe = Seq("a", "b", "c", "d")
    val subgroups = GroupEncoding.hierarchy(universe, 2)
    val pairKeys = for (a <- universe; b <- universe if a <= b) yield s"$a|$b"
    val groupSet = Gen.choose(0, 3).flatMap(k => Gen.pick(k, universe)).map(_.toSeq)
    val cases = for {
      taus <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.choose(0, 20).map(_ * 0.05)))
      n    <- Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 25))
      rows <- Gen.listOfN(n, for {
        id1 <- Gen.choose(0L, 3L); id2 <- Gen.choose(0L, 3L)
        g1 <- groupSet; g2 <- groupSet
        y <- Gen.oneOf(0, 1)
        s <- Gen.oneOf(Gen.oneOf(taus), Gen.choose(0.0, 1.0)) // exact ties with τ
      } yield (id1, id2, g1, g2, y, s))
    } yield (taus, rows)
    val prop = Prop.forAllNoShrink(cases) { case (taus, rows) =>
      val cube = ConfusionCube(TestPairs.scored(spark, rows), taus)
      Prop.all(taus.flatMap { t =>
        val ref = bruteForce(rows, t) _
        Seq(
          (cube.overall(t) ?= ref(_ => true)) :| s"overall τ=$t",
          (cube.counts(t, Lens.Single.keys) ?= bruteByKey(rows, t, universe) { (r, g) =>
            r._3.contains(g) || r._4.contains(g)
          }) :| s"single τ=$t",
          (cube.counts(t, Lens.Pairwise.keys) ?= bruteByKey(rows, t, pairKeys) { (r, k) =>
            val Array(a, b) = k.split('|')
            (r._3.contains(a) && r._4.contains(b)) || (r._3.contains(b) && r._4.contains(a))
          }) :| s"pairwise τ=$t",
        ) ++ subgroups.map { sg =>
          (cube.forSubgroup(t, sg) ?= ref(r => sg.groups.subsetOf(r._3.toSet) || sg.groups.subsetOf(r._4.toSet))) :|
            s"subgroup ${sg.key} τ=$t"
        }
      }: _*)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(Seed(2023L)), prop)
    assert(res.passed, res.status)
  }

  test("property: a cube over a grid counts at each of its thresholds as a cube over that threshold alone") {
    import org.apache.spark.sql.Row
    import org.apache.spark.sql.types._
    val universe = Seq("a", "b", "c")
    val subgroups = GroupEncoding.hierarchy(universe, 2)
    val groupSet = Gen.choose(0, 3).flatMap(k => Gen.pick(k, universe)).map(_.toSeq)
    val grids = Gen.frequency(
      4 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.choose(0, 20).map(_ * 0.05))),
      2 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.choose(0.0, 1.0))),
      1 -> Gen.const((6 to 19).map(_ * 0.05) ++ Seq(0.5, 0.9))) // the table harnesses' grid
    val cases = for {
      taus <- grids
      n    <- Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 25))
      rows <- Gen.listOfN(n, for {
        g1 <- groupSet; g2 <- groupSet
        y  <- Gen.oneOf(0, 1)
        s  <- Gen.frequency(3 -> Gen.oneOf(taus).map(Some(_)), 3 -> Gen.choose(0.0, 1.0).map(Some(_)),
                            1 -> Gen.const(None), 1 -> Gen.const(Some(Double.NaN)))
      } yield Row(g1, g2, y, s.getOrElse(null)))
    } yield (taus, rows)
    val schema = StructType(Seq(
      StructField("g1", ArrayType(StringType)), StructField("g2", ArrayType(StringType)),
      StructField("label", IntegerType), StructField("score", DoubleType)))
    val prop = Prop.forAllNoShrink(cases) { case (taus, rows) =>
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
      val wide = ConfusionCube(df, taus)
      Prop.all(taus.distinct.flatMap { t =>
        val one = ConfusionCube(df, Seq(t))
        Seq(
          (wide.overall(t) ?= one.overall(t)) :| s"overall τ=$t",
          (wide.counts(t, Lens.Single.keys) ?= one.counts(t, Lens.Single.keys)) :| s"single τ=$t",
          (wide.counts(t, Lens.Pairwise.keys) ?= one.counts(t, Lens.Pairwise.keys)) :| s"pairwise τ=$t",
        ) ++ subgroups.map(sg => (wide.forSubgroup(t, sg) ?= one.forSubgroup(t, sg)) :| s"subgroup ${sg.key} τ=$t")
      }: _*)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(30).withInitialSeed(Seed(2024L)), prop)
    assert(res.passed, res.status)
  }

  test("confusion addition") {
    assert(Confusion(1, 2, 3, 4) + Confusion(10, 20, 30, 40) == Confusion(11, 22, 33, 44))
  }
  test("confusion total") { assert(Confusion(1, 2, 3, 4).total == 10) }
}
