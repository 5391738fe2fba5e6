package repro.matchers

import org.apache.spark.ml.classification._
import org.apache.spark.ml.functions.vector_to_array
import org.apache.spark.ml.regression.GeneralizedLinearRegression
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core._
import FeatureMatcher._

// The Magellan-style non-neural matchers (§4.2.1, Table 3): a traditional
// classifier over automatically generated per-attribute similarity features
// (FeatureMatcher's default features). Mirrors the paper's setup: "all of the
// generated features are fed to the models for training" (§5.1.4).

/** Decision-tree matcher (Magellan DTMatcher). */
final case class DTMatcher() extends FeatureMatcher(MatcherKind.NonNeural) {
  val name = "DTMatcher"
  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame =
    // maxBins 128: with EM's extreme class imbalance the discriminating
    // high-similarity range must not be lumped into one coarse quantile bin
    // (sklearn, which Magellan uses, considers every threshold).
    probScorer(new DecisionTreeClassifier()
      .setLabelCol("label").setFeaturesCol("features").setMaxDepth(5).setMaxBins(128).setSeed(0)
      .fit(train))
}

/** Random-forest matcher (Magellan RFMatcher). */
final case class RFMatcher() extends FeatureMatcher(MatcherKind.NonNeural) {
  val name = "RFMatcher"
  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame =
    probScorer(new RandomForestClassifier()
      .setLabelCol("label").setFeaturesCol("features")
      .setNumTrees(20).setMaxDepth(6).setMaxBins(128).setSeed(0)
      .fit(train))
}

/** Logistic-regression matcher (Magellan LogRegMatcher). */
final case class LogRegMatcher() extends FeatureMatcher(MatcherKind.NonNeural) {
  val name = "LogRegMatcher"
  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame =
    probScorer(new LogisticRegression()
      .setLabelCol("label").setFeaturesCol("features").setMaxIter(100)
      .fit(train))
}

/** Linear-regression matcher (Magellan LinRegMatcher): regresses the 0/1
  * label; the raw prediction (clipped to [0,1] by the scaffold) is the
  * confidence — poorly calibrated by construction, as in Magellan.
  */
final case class LinRegMatcher() extends FeatureMatcher(MatcherKind.NonNeural) {
  val name = "LinRegMatcher"
  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame = {
    // Mild sqrt class weighting (cap 10): plain least squares under EM's
    // class imbalance regresses every prediction to ~0; the square-root
    // weight yields the partially-working, badly-calibrated matcher the
    // paper reports (low TPR, group-skewed PPV).
    // Least squares through the Gaussian, identity-link GLM: one weighted
    // least-squares pass, as `LinearRegression`'s normal solver runs, but
    // with a lazy training summary. `LinearRegression` always builds its
    // summary's error metrics, one more Spark job per fit that nothing reads.
    // Where the normal equations are singular (Cricket), the quasi-Newton
    // fallback runs up to its default 100 iterations, not 50: low bits of
    // the scores move, and no table cell does (MatcherSpec checks the cubes).
    val model = new GeneralizedLinearRegression().setFamily("gaussian").setLink("identity")
      .setLabelCol("label").setFeaturesCol("features").setWeightCol("w")
      .fit(weighted(train, sqrtBalance(nPos, nNeg, 10.0)))
    df => model.transform(df).withColumnRenamed("prediction", "score")
  }
}

/** Gaussian naive-Bayes matcher (Magellan NBMatcher) — similarity features
  * are continuous, so the Gaussian event model applies.
  */
final case class NBMatcher() extends FeatureMatcher(MatcherKind.NonNeural) {
  val name = "NBMatcher"
  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame =
    probScorer(new NaiveBayes()
      .setLabelCol("label").setFeaturesCol("features").setModelType("gaussian")
      .fit(train))
}

/** Linear-SVM matcher (Magellan SVMMatcher). The margin is squashed through
  * a logistic link so the confidence lives in [0,1] like the other matchers
  * (decoupled thresholding, §3.1).
  */
final case class SVMMatcher() extends FeatureMatcher(MatcherKind.NonNeural) {
  val name = "SVMMatcher"
  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame = {
    val model = new LinearSVC()
      .setLabelCol("label").setFeaturesCol("features").setMaxIter(60)
      .fit(train)
    df => model.transform(df)
      .withColumn("score", lit(1.0) / (lit(1.0) + exp(-vector_to_array(col("rawPrediction"))(1) * 2.0)))
      .drop("rawPrediction", "prediction")
  }
}
