package repro.matchers

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core._

/** Declarative rule-based matcher (§4.1, Table 3): the conjunction of
  * per-dataset "handpicked" rules, each comparing a generated similarity
  * feature against a threshold (exact-match features for short atomic
  * attributes, distance-based features with threshold 0.5 for longer ones —
  * §5.1.4).
  *
  * The output score is binary (1 if every rule holds, else 0): rule-based
  * matching produces decisions, not confidences, which also makes the matcher
  * threshold-insensitive in the Table 7 sweep, as the paper reports.
  */
final case class BooleanRuleMatcher() extends Matcher {
  val name = "BooleanRuleMatcher"
  val kind: MatcherKind = MatcherKind.RuleBased

  def fit(ds: EMDataset): FittedMatcher = {
    require(ds.ruleAttrs.nonEmpty, s"no rules specified for dataset ${ds.name}")
    val names = FeatureGen.featureNames(ds.attrs)
    for (r <- ds.ruleAttrs)
      require(names.contains(r.feature),
        s"rule feature ${r.feature} is not generated for dataset ${ds.name} " +
        s"(generated: ${names.mkString(", ")})")
    val conj = ds.ruleAttrs.map(r => col(r.feature) > r.threshold).reduce(_ && _)
    new FittedMatcher {
      def scores(pairs: DataFrame): DataFrame =
        FeatureGen.addFeatures(pairs, ds.attrs).withColumn("score", when(conj, 1.0).otherwise(0.0)).drop(names: _*)
    }
  }
}
