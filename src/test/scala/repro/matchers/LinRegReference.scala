package repro.matchers

import org.apache.spark.ml.regression.LinearRegression
import org.apache.spark.sql.DataFrame

import repro.core._
import FeatureMatcher._

/** Test reference: LinRegMatcher fitted through `LinearRegression` (50
  * iterations) instead of the Gaussian GLM, with the same features, class
  * weights and label; `LinRegMatcher`'s scores are compared against it.
  */
object LinRegReference extends FeatureMatcher(MatcherKind.NonNeural) {
  val name = "LinRegMatcher"

  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame = {
    val model = new LinearRegression()
      .setLabelCol("label").setFeaturesCol("features").setWeightCol("w").setMaxIter(50)
      .fit(weighted(train, sqrtBalance(nPos, nNeg, 10.0)))
    df => model.transform(df).withColumnRenamed("prediction", "score")
  }
}
