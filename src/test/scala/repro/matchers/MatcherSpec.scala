package repro.matchers

import org.apache.spark.ml.attribute.{Attribute, NominalAttribute}
import org.apache.spark.ml.linalg.SQLDataTypes
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.functions._

import repro.{AssembledCheck, SparkSpec}
import repro.core._
import repro.data.{EMBench, GenUtil, Social}
import repro.data.GenUtil.PairRow
import repro.eval.Tables
import repro.matchers.neural._

/** Behavioural unit tests for all 13 matchers on a small controlled dataset:
  * every matcher must learn the trivial separation (identical-ish names
  * match, different names don't), emit scores in [0,1], and respect the
  * Matcher contract.
  */
class MatcherSpec extends SparkSpec {

  /** Toy dataset: matches are near-identical two-token names; negatives are
    * unrelated names. 40 train / 40 test pairs, balanced enough to learn.
    */
  private lazy val toy: EMDataset = {
    val rnd = new scala.util.Random(5)
    val firsts = Vector("alpha", "bravo", "carson", "delta", "echo", "foxtro",
      "golfer", "hotelx", "indigo", "julietx")
    val lasts = Vector("miller", "keaton", "watson", "porter", "nguyen",
      "fischer", "romano", "baxter", "quincy", "zubrin")
    def name(i: Int): String = s"${firsts(i % 10)} ${lasts(i / 10 % 10)}"
    val rows = (0 until 50).map { i =>
      val n = name(i)
      PairRow(i.toLong, (1000 + i).toLong, Seq(n), Seq(n.dropRight(1) + "x"),
        Seq(if (i % 2 == 0) "even" else "odd"), Seq(if (i % 2 == 0) "even" else "odd"), 1)
    } ++ (0 until 50).map { i =>
      val n1 = name(i); val n2 = name((i + 13) % 100)
      PairRow((100 + i).toLong, (1100 + i).toLong, Seq(n1), Seq(n2),
        Seq("even"), Seq("odd"), 0)
    }
    val attrs = Seq(AttrSpec("name", AttrKind.ShortStr))
    val df = GenUtil.pairsDF(spark, Seq("name"), rnd.shuffle(rows))
    val (train, test) = GenUtil.split(df, 0.5, 1)
    EMDataset("toy", attrs, "parity", train, test,
      ruleAttrs = Seq(MatchRule("f_name_lev", 0.5)))
  }

  /** `m` fitted on `toy` and scoring its test split, fitted once per matcher
    * for the tests below that only read the scores.
    */
  private val scoredToy = scala.collection.mutable.Map.empty[Matcher, DataFrame]
  private def scoredBy(m: Matcher): DataFrame =
    scoredToy.getOrElseUpdate(m, m.fit(toy).scores(toy.test))

  private def accuracyOf(m: Matcher): Double = {
    val c = ConfusionCounts.overall(scoredBy(m), 0.5)
    Audit.accuracy(c)
  }

  private def checkScores(m: Matcher): Unit = {
    val scored = scoredBy(m)
    assert(scored.columns.contains("score"))
    val mm = scored.agg(min("score"), max("score")).head()
    assert(mm.getDouble(0) >= 0.0 && mm.getDouble(1) <= 1.0 + 1e-9)
    // scoring must not drop or duplicate pairs
    assert(scored.count() == toy.test.count())
  }

  for (m <- Matchers.all if m.name != "Dedupe") {
    test(s"${m.name}: scores are within [0,1] and row-preserving") { checkScores(m) }
    test(s"${m.name}: learns the toy separation (accuracy > 0.8)") {
      val acc = accuracyOf(m)
      assert(acc > 0.8, s"${m.name} accuracy $acc")
    }
  }

  test("Dedupe: learns the toy separation") {
    val acc = accuracyOf(new DedupeMatcher())
    assert(acc > 0.8, s"Dedupe accuracy $acc")
  }
  test("Dedupe: refuses oversized datasets") {
    intercept[MatcherNotScalable] { new DedupeMatcher(maxPairs = 10).fit(toy) }
  }
  test("Dedupe: refuses textual datasets") {
    val textual = toy.copy(attrs = Seq(AttrSpec("name", AttrKind.LongText)))
    intercept[MatcherNotScalable] { new DedupeMatcher().fit(textual) }
  }
  test("Dedupe: scoring leaves no cached frame behind") {
    spark.catalog.clearCache()
    val scored = DedupeMatcher().fit(toy).scores(toy.test)
    assert(scored.filter(col("score") >= 0.5).count() > 0)
    assert(spark.sharedState.cacheManager.isEmpty)
  }

  test("Dedupe clustering: a transitive chain puts both of its ends in one cluster") {
    val c = DedupeMatcher.clusters(Seq((1L, 1L), (2L, 1L), (2L, 2L)))
    assert(c.keySet == Set(('L', 1L), ('L', 2L), ('R', 1L), ('R', 2L)))
    assert(c.values.toSet.size == 1 && c(('L', 1L)) == c(('R', 2L)))
  }
  test("Dedupe clustering: disconnected components stay apart") {
    val c = DedupeMatcher.clusters(Seq((1L, 1L), (2L, 2L), (3L, 2L)))
    assert(c(('L', 1L)) == c(('R', 1L)) && c(('L', 2L)) == c(('L', 3L)) && c(('L', 3L)) == c(('R', 2L)))
    assert(c(('L', 1L)) != c(('R', 2L)))
    // The same id on both sides names two records.
    assert(c(('L', 2L)) != c(('R', 1L)))
  }
  test("Dedupe clustering: a 5000-edge chain resolves well under a second") {
    val edges = (0L until 2500L).flatMap(i => Seq((i, i), (i + 1, i)))
    val t0 = System.nanoTime()
    val c = DedupeMatcher.clusters(edges)
    val secs = (System.nanoTime() - t0) / 1e9
    assert(edges.size == 5000 && c.size == 5001 && c.values.toSet.size == 1)
    assert(secs < 1.0, s"$secs s")
  }

  test("registry has the paper's 13 matchers") {
    assert(Matchers.all.size == 13)
    assert(Matchers.all.map(_.name).distinct.size == 13)
  }
  test("registry kinds: 1 rule-based, 7 non-neural, 5 neural (Table 3)") {
    val byKind = Matchers.all.groupBy(_.kind).view.mapValues(_.size).toMap
    assert(byKind(MatcherKind.RuleBased) == 1)
    assert(byKind(MatcherKind.NonNeural) == 7)
    assert(byKind(MatcherKind.Neural) == 5)
  }

  test("BooleanRuleMatcher produces only binary scores") {
    val scored = new BooleanRuleMatcher().fit(toy).scores(toy.test)
    val vals = scored.select("score").distinct().collect().map(_.getDouble(0)).toSet
    assert(vals.subsetOf(Set(0.0, 1.0)))
  }
  test("BooleanRuleMatcher requires rules") {
    intercept[IllegalArgumentException] {
      new BooleanRuleMatcher().fit(toy.copy(ruleAttrs = Nil))
    }
  }

  test("matchers fall back to constant scores on single-class training data") {
    val oneClass = toy.copy(train = toy.train.filter("label = 0"))
    val scored = new DTMatcher().fit(oneClass).scores(toy.test)
    assert(scored.select("score").distinct().count() == 1)
  }

  test("BooleanRuleMatcher rejects a rule on a feature that is not generated, at fit") {
    val e = intercept[IllegalArgumentException] {
      BooleanRuleMatcher().fit(toy.copy(ruleAttrs = Seq(MatchRule("f_nmae_lev", 0.5))))
    }
    assert(e.getMessage.contains("f_nmae_lev") && e.getMessage.contains("toy"))
  }

  test("BooleanRuleMatcher: scores on three test splits are bit-identical to the per-rule UDF conjunction") {
    for (ds <- Seq(Social.facultyMatch(spark), Social.noFlyCompas(spark), EMBench.iTunesAmazon(spark))) {
      val rule = AssembledCheck.magellanColumns(ds.attrs).toMap
      val conj = ds.ruleAttrs.map(r => rule(r.feature) > r.threshold).reduce(_ && _)
      val expected = ds.test.withColumn("score", when(conj, 1.0).otherwise(0.0))
      val actual = BooleanRuleMatcher().fit(ds).scores(ds.test)
      assert(actual.columns.toSeq == expected.columns.toSeq, ds.name)
      def bits(df: DataFrame): Seq[(Long, Long, Long)] = df.select("id1", "id2", "score").collect().toSeq
        .map(r => (r.getLong(0), r.getLong(1), java.lang.Double.doubleToRawLongBits(r.getDouble(2)))).sorted
      assert(bits(actual) == bits(expected), ds.name)
    }
  }

  test("BooleanRuleMatcher: the optimized plan runs the feature kernel once, not once per rule") {
    val ds = Social.facultyMatch(spark)
    assert(ds.ruleAttrs.size == 2)
    val plan = BooleanRuleMatcher().fit(ds).scores(ds.test).queryExecution.optimizedPlan
    val kernels = plan.flatMap(_.expressions.flatMap(_.collect {
      case u: ScalaUDF if u.dataType == SQLDataTypes.VectorType => u
    }))
    assert(kernels.size == 1, plan)
  }

  private val trained = Matchers.all.filter(_.kind != MatcherKind.RuleBased)

  for (m <- trained; label <- Seq(0, 1))
    test(s"${m.name}: a single-class training split (label $label) gives the constant score $label") {
      val oneClass = toy.copy(train = toy.train.filter(s"label = $label"))
      val scores = m.fit(oneClass).scores(toy.test).select("score").distinct().collect().map(_.getDouble(0))
      assert(scores.toSeq == Seq(label.toDouble))
    }

  for (m <- trained)
    test(s"${m.name}: fitting and scoring leave no cached frame behind") {
      spark.catalog.clearCache()
      assert(m.fit(toy).scores(toy.test).count() == toy.test.count())
      assert(spark.sharedState.cacheManager.isEmpty)
    }

  // The binary `label` metadata of the training frame only spares MLlib the
  // job that finds the class count: each estimator's test scores are the same
  // bits with and without it.
  for (m <- Seq(DTMatcher(), RFMatcher(), NBMatcher(), LogRegMatcher(), SVMMatcher(), DedupeMatcher(),
                DeepMatcherSim()))
    test(s"${m.name}: the binary label metadata leaves its test scores bit-identical") {
      val fs = m.features(toy.attrs)
      val train = toy.train.withColumn("features", fs)
      val marked = FeatureMatcher.binaryLabel(train)
      assert((Attribute.fromStructField(marked.schema("label")) match {
        case a: NominalAttribute => a.getNumValues
        case _                   => None
      }).contains(2))
      val byLabel = Counts.by(train, col("label"))
      def bits(tr: DataFrame): Seq[Long] =
        m.classifier(tr, byLabel(Row(1)), byLabel(Row(0)))(toy.test.withColumn("features", fs))
          .select("score").collect().toSeq.map(r => java.lang.Double.doubleToRawLongBits(r.getDouble(0)))
      assert(bits(marked) == bits(train))
    }

  test("GNEM suppresses non-best candidates within a left record's set") {
    val rows = Seq(
      PairRow(1, 10, Seq("alpha miller"), Seq("alpha miller"), Seq("g"), Seq("g"), 1),
      PairRow(1, 11, Seq("alpha miller"), Seq("alpha milles"), Seq("g"), Seq("g"), 0))
    val df = GenUtil.pairsDF(spark, Seq("name"), rows)
    val ds = toy.copy(test = df)
    val scored = new GnemSim().fit(ds).scores(df).collect()
      .map(r => r.getAs[Long]("id2") -> r.getAs[Double]("score")).toMap
    // the weaker candidate must be strictly suppressed below the winner
    assert(scored(11) < scored(10))
  }

  test("GNEM: test scores on three splits are bit-identical to its own fit of Ditto's features and head plus the competition") {
    for (ds <- Seq(EMBench.iTunesAmazon(spark), EMBench.dblpAcm(spark), Social.facultyMatch(spark))) {
      def bits(m: Matcher): Seq[(Long, Long, Long)] = m.fit(ds).scores(ds.test).select("id1", "id2", "score")
        .collect().toSeq.map(r => (r.getLong(0), r.getLong(1), java.lang.Double.doubleToRawLongBits(r.getDouble(2))))
        .sorted
      val expected = bits(GnemReference)
      assert(expected.size == ds.test.count(), ds.name)
      assert(bits(GnemSim()) == expected, ds.name)
    }
  }

  test("LinRegMatcher: its cube over every table τ equals a LinearRegression fit's, and its scores are bit-identical on iTunes-Amazon") {
    for (ds <- Seq(EMBench.iTunesAmazon(spark), Social.facultyMatch(spark), EMBench.cricket(spark))) {
      val (ours, ref) = (LinRegMatcher().fit(ds).scores(ds.test), LinRegReference.fit(ds).scores(ds.test))
      def counts(scored: DataFrame) = {
        val cube = ConfusionCube(scored, Tables.taus)
        Tables.taus.map(t => (cube.overall(t), cube.counts(t, Lens.Single(1)), cube.counts(t, Lens.Pairwise)))
      }
      assert(counts(ours) == counts(ref), ds.name)
      // Cholesky succeeds here, so both run the same one least-squares pass.
      if (ds.name == "iTunes-Amazon") {
        def bits(scored: DataFrame): Seq[(Long, Long, Long)] = scored.select("id1", "id2", "score")
          .collect().toSeq.map(r => (r.getLong(0), r.getLong(1), java.lang.Double.doubleToRawLongBits(r.getDouble(2))))
          .sorted
        assert(bits(ours) == bits(ref))
      }
    }
  }

  test("neural matchers expose Table 3 names") {
    assert(Matchers.neural.map(_.name).toSet ==
      Set("DeepMatcher", "Ditto", "GNEM", "HierMatcher", "MCAN"))
  }
}
