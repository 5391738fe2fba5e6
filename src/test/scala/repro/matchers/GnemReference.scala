package repro.matchers

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core._
import repro.matchers.neural.DittoSim

/** Test reference: GNEM as its own trained matcher, with no fit shared with
  * Ditto. A [[FeatureMatcher]] with Ditto's features and head, then the
  * one-to-set window competition, copied here as the reference that
  * `GnemSim`'s scores are compared against.
  */
object GnemReference extends Matcher {
  val name = "GNEM"
  val kind: MatcherKind = MatcherKind.Neural

  private object Pairwise extends FeatureMatcher(MatcherKind.Neural) {
    val name = "GNEM pairwise"
    override protected[matchers] def features(attrs: Seq[AttrSpec]): Column = DittoSim().features(attrs)
    protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame =
      DittoSim().classifier(train, nPos, nNeg)
  }

  def fit(ds: EMDataset): FittedMatcher = {
    val pairwise = Pairwise.fit(ds)
    new FittedMatcher {
      def scores(pairs: DataFrame): DataFrame = {
        val w = Window.partitionBy("id1")
        pairwise.scores(pairs).withColumn("score",
          when(count(lit(1)).over(w) > 1 && col("score") < max("score").over(w),
            col("score") * 0.55)
          .otherwise(col("score")))
      }
    }
  }
}
