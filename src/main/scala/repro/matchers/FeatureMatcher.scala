package repro.matchers

import org.apache.spark.ml.{Model, Transformer}
import org.apache.spark.ml.attribute.NominalAttribute
import org.apache.spark.ml.functions.vector_to_array
import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.core._

/** The shape of every trained matcher (§4.2, Table 3): per-pair features and
  * a classifier over them, its two hooks. A refinement of the scores
  * (Dedupe's clustering, GNEM's one-to-set competition) wraps a fitted
  * matcher instead.
  *
  * One `fit` for all of them: add the `features` vector (one UDF per pair),
  * mark the training `label` binary, count both classes of the cached
  * training split (the one [[Counts]] job also fills the cache), fall back to
  * the constant class when the split has only one, otherwise train the
  * classifier. Scores are clipped to [0,1] and the vector dropped.
  */
abstract class FeatureMatcher(val kind: MatcherKind) extends Matcher {

  /** The feature vector of a pair frame, with its ML attribute metadata:
    * the Magellan features by default.
    */
  protected[matchers] def features(attrs: Seq[AttrSpec]): Column =
    FeatureGen.vector(attrs, FeatureGen.magellan(attrs))

  /** Trains on the featurized training split, which holds `nPos` matches and
    * `nNeg` non-matches (both > 0); returns a scorer that adds a `score`
    * column to a featurized frame.
    */
  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame

  def fit(ds: EMDataset): FittedMatcher = {
    val fs = features(ds.attrs)
    def prep(df: DataFrame): DataFrame = df.withColumn("features", fs)

    val train = FeatureMatcher.binaryLabel(prep(ds.train)).cache()
    val counts = Counts.by(train, col("label"))
    val (nPos, nNeg) = (counts.getOrElse(Row(1), 0L), counts.getOrElse(Row(0), 0L))
    val scorer: DataFrame => DataFrame =
      if (nPos == 0 || nNeg == 0) {
        // Degenerate training split: fall back to the constant class.
        val c = if (nPos > 0) 1.0 else 0.0
        df => df.withColumn("score", lit(c))
      } else classifier(train, nPos, nNeg)
    train.unpersist()

    new FittedMatcher {
      def scores(pairs: DataFrame): DataFrame =
        scorer(prep(pairs))
          .withColumn("score", least(greatest(col("score"), lit(0.0)), lit(1.0)))
          .drop("features")
    }
  }
}

object FeatureMatcher {

  /** `train` with binary nominal metadata on its 0/1 `label`: MLlib's
    * classifiers read the class count from the schema instead of running a
    * job for the largest label.
    */
  private[matchers] def binaryLabel(train: DataFrame): DataFrame =
    train.withColumn("label", col("label").as("label", NominalAttribute.defaultAttr.withNumValues(2).toMetadata()))

  /** score = P(match) from a probabilistic classifier's probability vector. */
  def probScorer(model: Model[_] with Transformer): DataFrame => DataFrame =
    df => model.transform(df)
      .withColumn("score", vector_to_array(col("probability"))(1))
      .drop("rawPrediction", "probability", "prediction")

  /** Damped class balance: the weight of a positive, sqrt(nNeg / nPos) capped
    * at `cap`. Full balance makes every matcher FP-happy at τ=0.5 under EM's
    * O(n) class imbalance; the square root mirrors the partial rebalancing
    * of mini-batch training.
    */
  def sqrtBalance(nPos: Long, nNeg: Long, cap: Double): Double =
    math.min(cap, math.sqrt(nNeg.toDouble / nPos))

  /** `train` with a weight column `w`: `w` on matches, 1 on non-matches. */
  def weighted(train: DataFrame, w: Double): DataFrame =
    train.withColumn("w", when(col("label") === 1, w).otherwise(1.0))
}
