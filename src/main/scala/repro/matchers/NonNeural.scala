package repro.matchers

import org.apache.spark.ml.classification._
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.functions.vector_to_array
import org.apache.spark.ml.regression.LinearRegression
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core._

/** The Magellan-style non-neural matchers (§4.2.1, Table 3): a traditional
  * classifier over automatically generated per-attribute similarity features.
  * Mirrors the paper's setup: "all of the generated features are fed to the
  * models for training" (§5.1.4).
  */
abstract class NonNeuralMatcher extends Matcher {
  val kind: MatcherKind = MatcherKind.NonNeural

  /** Returns a frame with a `score` column given an assembled `features`
    * column; implemented per concrete classifier.
    */
  protected def trainAndScore(train: DataFrame): DataFrame => DataFrame

  def fit(ds: EMDataset): FittedMatcher = {
    val attrs  = ds.attrs
    val fnames = FeatureGen.featureNames(attrs)
    val asm    = new VectorAssembler().setInputCols(fnames.toArray).setOutputCol("features")
    def prep(df: DataFrame): DataFrame = asm.transform(FeatureGen.addFeatures(df, attrs))

    val train = prep(ds.train).cache()
    val labels = train.select("label").distinct().collect().map(_.getInt(0)).toSet
    val scorer: DataFrame => DataFrame =
      if (labels.size < 2) {
        // Degenerate training split: fall back to the constant class.
        val c = if (labels.contains(1)) 1.0 else 0.0
        df => df.withColumn("score", lit(c))
      } else trainAndScore(train)
    train.unpersist()

    new FittedMatcher {
      def scores(pairs: DataFrame): DataFrame =
        scorer(prep(pairs))
          .withColumn("score", least(greatest(col("score"), lit(0.0)), lit(1.0)))
          .drop((fnames :+ "features"): _*)
    }
  }

  /** score = P(match) from a probabilistic classifier's probability vector. */
  protected def probScorer(model: org.apache.spark.ml.Model[_] with org.apache.spark.ml.Transformer)
      : DataFrame => DataFrame =
    df => model.transform(df)
      .withColumn("score", vector_to_array(col("probability"))(1))
      .drop("rawPrediction", "probability", "prediction")
}

/** Decision-tree matcher (Magellan DTMatcher). */
final case class DTMatcher() extends NonNeuralMatcher {
  val name = "DTMatcher"
  protected def trainAndScore(train: DataFrame): DataFrame => DataFrame =
    // maxBins 128: with EM's extreme class imbalance the discriminating
    // high-similarity range must not be lumped into one coarse quantile bin
    // (sklearn, which Magellan uses, considers every threshold).
    probScorer(new DecisionTreeClassifier()
      .setLabelCol("label").setFeaturesCol("features").setMaxDepth(5).setMaxBins(128).setSeed(0)
      .fit(train))
}

/** Random-forest matcher (Magellan RFMatcher). */
final case class RFMatcher() extends NonNeuralMatcher {
  val name = "RFMatcher"
  protected def trainAndScore(train: DataFrame): DataFrame => DataFrame =
    probScorer(new RandomForestClassifier()
      .setLabelCol("label").setFeaturesCol("features")
      .setNumTrees(20).setMaxDepth(6).setMaxBins(128).setSeed(0)
      .fit(train))
}

/** Logistic-regression matcher (Magellan LogRegMatcher). */
final case class LogRegMatcher() extends NonNeuralMatcher {
  val name = "LogRegMatcher"
  protected def trainAndScore(train: DataFrame): DataFrame => DataFrame =
    probScorer(new LogisticRegression()
      .setLabelCol("label").setFeaturesCol("features").setMaxIter(100)
      .fit(train))
}

/** Linear-regression matcher (Magellan LinRegMatcher): regresses the 0/1
  * label; the raw prediction (clipped to [0,1] by the base class) is the
  * confidence — poorly calibrated by construction, as in Magellan.
  */
final case class LinRegMatcher() extends NonNeuralMatcher {
  val name = "LinRegMatcher"
  protected def trainAndScore(train: DataFrame): DataFrame => DataFrame = {
    // Mild sqrt class weighting: plain least squares under EM's O(n) class
    // imbalance regresses every prediction to ~0; the square-root weight
    // yields the partially-working, badly-calibrated matcher the paper
    // reports (low TPR, group-skewed PPV).
    val nPos = math.max(1L, train.filter("label = 1").count())
    val nNeg = math.max(1L, train.filter("label = 0").count())
    val w = math.min(10.0, math.sqrt(nNeg.toDouble / nPos))
    val weighted = train.withColumn("w", when(col("label") === 1, w).otherwise(1.0))
    val model = new LinearRegression()
      .setLabelCol("label").setFeaturesCol("features").setWeightCol("w").setMaxIter(50)
      .fit(weighted)
    df => model.transform(df).withColumnRenamed("prediction", "score")
  }
}

/** Gaussian naive-Bayes matcher (Magellan NBMatcher) — similarity features
  * are continuous, so the Gaussian event model applies.
  */
final case class NBMatcher() extends NonNeuralMatcher {
  val name = "NBMatcher"
  protected def trainAndScore(train: DataFrame): DataFrame => DataFrame =
    probScorer(new NaiveBayes()
      .setLabelCol("label").setFeaturesCol("features").setModelType("gaussian")
      .fit(train))
}

/** Linear-SVM matcher (Magellan SVMMatcher). The margin is squashed through
  * a logistic link so the confidence lives in [0,1] like the other matchers
  * (decoupled thresholding, §3.1).
  */
final case class SVMMatcher() extends NonNeuralMatcher {
  val name = "SVMMatcher"
  protected def trainAndScore(train: DataFrame): DataFrame => DataFrame = {
    val model = new LinearSVC()
      .setLabelCol("label").setFeaturesCol("features").setMaxIter(60)
      .fit(train)
    df => model.transform(df)
      .withColumn("score", lit(1.0) / (lit(1.0) + exp(-vector_to_array(col("rawPrediction"))(1) * 2.0)))
      .drop("rawPrediction", "prediction")
  }
}
