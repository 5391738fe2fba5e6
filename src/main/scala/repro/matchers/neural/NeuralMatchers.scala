package repro.matchers.neural

import org.apache.spark.ml.attribute.AttributeGroup
import org.apache.spark.ml.classification.{LogisticRegression, MultilayerPerceptronClassifier}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.core._
import repro.matchers.FeatureMatcher
import repro.matchers.FeatureMatcher._

/** The five neural matchers (§4.2.2, Table 3), reduced to their inductive
  * biases over the [[TextEncoder]] "pretrained" embedding space (see
  * DESIGN.md for the substitution argument):
  *
  *  - DittoSim: serializes the whole record into one text block — loses the
  *    attribute structure, like Ditto's single-sequence LM input;
  *  - DeepMatcherSim: per-attribute embedding composition + a small MLP
  *    (the hybrid RNN+attention model's smooth nonlinear boundary);
  *  - HierMatcherSim: per-attribute token alignment (cross-attribute token
  *    alignment with attribute-aware attention);
  *  - McanSim: multiple attention contexts (per-attribute, global, token);
  *  - GnemSim: Ditto's pairwise scores refined one-to-set over candidates
  *    that share a left record (graph propagation).
  */
abstract class NeuralMatcherBase extends FeatureMatcher(MatcherKind.Neural) {

  /** L2 strength of the default LR head; MCAN overrides it. */
  protected val regParam: Double = 0.001

  /** The default head: logistic regression with damped balanced class
    * weights (cap 12). Neural EM trainers sample balanced mini-batches under
    * EM's O(n) class imbalance; the weight column is the MLlib equivalent.
    */
  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame =
    probScorer(new LogisticRegression()
      .setLabelCol("label").setFeaturesCol("features").setWeightCol("w").setMaxIter(40)
      .setRegParam(regParam)
      .fit(weighted(train, sqrtBalance(nPos, nNeg, 12.0))))
}

object NeuralMatcherBase {
  import FeatureGen.{Feature, raw}

  /** Whole-record (structure-blind) features: encoder similarities of the
    * Ditto-style serialization.
    */
  val global: Seq[Feature] = Seq(
    Feature("nf_g_cos", None, raw(TextEncoder.textCos)),
    Feature("nf_g_align", None, raw(TextEncoder.align)),
    Feature("nf_g_jac", None, raw(TextEncoder.normJaccard)))

  /** The encoder similarity `fn` of each attribute's values. */
  def perAttr(attrs: Seq[AttrSpec], sim: String, fn: (String, String) => Double): Seq[Feature] =
    attrs.indices.map(i => Feature(s"nf_${sim}_${attrs(i).name}", Some(i), raw(fn)))
}

/** Ditto: pre-trained LM over a serialized record pair (structure-blind). */
final case class DittoSim() extends NeuralMatcherBase {
  val name = "Ditto"
  override protected[matchers] def features(attrs: Seq[AttrSpec]): Column =
    FeatureGen.vector(attrs, NeuralMatcherBase.global)
}

/** DeepMatcher (hybrid): per-attribute embedding composition plus the
  * serialized-record summary (the hybrid model attends across attribute
  * boundaries), fed to a small MLP.
  */
final case class DeepMatcherSim() extends NeuralMatcherBase {
  val name = "DeepMatcher"
  import NeuralMatcherBase._
  override protected[matchers] def features(attrs: Seq[AttrSpec]): Column =
    FeatureGen.vector(attrs, perAttr(attrs, "cos", TextEncoder.textCos) ++ perAttr(attrs, "align", TextEncoder.align) ++ global)
  override protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame = {
    // MultilayerPerceptronClassifier has no weight column: emulate balanced
    // mini-batches by oversampling the positive class.
    val k = math.max(1L, sqrtBalance(nPos, nNeg, 12.0).round).toInt
    // The input width, from the vector's ML attribute metadata (no Spark job).
    val nFeatures = AttributeGroup.fromStructField(train.schema("features")).size
    val balanced = train
      .withColumn("dup",
        explode(array_repeat(lit(1), when(col("label") === 1, k).otherwise(1))))
      .drop("dup")
    // A narrow hidden layer: enough to bend the boundary, not enough to
    // memorize the dense hard-negative clusters of the majority group.
    probScorer(new MultilayerPerceptronClassifier()
      .setLabelCol("label").setFeaturesCol("features")
      .setLayers(Array(nFeatures, 4, 2)).setMaxIter(60).setSeed(3)
      .fit(balanced))
  }
}

/** HierMatcher: attribute-aware token alignment. */
final case class HierMatcherSim() extends NeuralMatcherBase {
  val name = "HierMatcher"
  import NeuralMatcherBase._
  override protected[matchers] def features(attrs: Seq[AttrSpec]): Column =
    FeatureGen.vector(attrs, perAttr(attrs, "align", TextEncoder.align) :+ global(1))
}

/** MCAN: multi-context attention — per-attribute, global, and token contexts
  * gated by the downstream classifier.
  */
final case class McanSim() extends NeuralMatcherBase {
  val name = "MCAN"
  import NeuralMatcherBase._
  override protected[matchers] def features(attrs: Seq[AttrSpec]): Column =
    FeatureGen.vector(attrs, perAttr(attrs, "align", TextEncoder.align) ++ perAttr(attrs, "cos", TextEncoder.textCos) ++ global)
  // Heavier L2: the many attention contexts are gated smoothly rather than
  // sharply, which keeps MCAN's boundary curvier (and occasionally FP-prone).
  override protected val regParam: Double = 0.02
}

/** GNEM: one-to-set refinement — each pair competes against the candidate
  * pairs sharing its left record (GCN message passing reduced to
  * within-candidate-set competition): the relative rank ``score / max`` is
  * blended into the absolute score. This lifts the best candidate of every
  * record (high recall on one-to-many candidate sets, e.g. the social
  * datasets, where GNEM leads the neural pack in Tables 5/6) and also
  * over-commits to records whose candidates are all true non-matches —
  * reproducing GNEM's characteristic F-1 collapse on DBLP-ACM (Table 9).
  * Pairs whose left record has a single candidate keep the base score.
  *
  * The pairwise model is Ditto's (the same serialized-record features and LR
  * head), so GNEM scores through Ditto's fit on the dataset instance
  * ([[EMDataset.fitted]]) rather than training it again.
  */
final case class GnemSim() extends Matcher {
  val name = "GNEM"
  val kind: MatcherKind = MatcherKind.Neural

  def fit(ds: EMDataset): FittedMatcher = {
    val pairwise = ds.fitted(DittoSim()).get // Ditto refuses no dataset.
    pairs => compete(pairwise.scores(pairs))
  }

  private def compete(scored: DataFrame): DataFrame = {
    // Winner-take-most competition within each left record's candidate set:
    // the top-scoring candidate keeps its score, the rest are suppressed.
    // On one-to-many sets whose best candidate is the true match (social
    // datasets) this removes similar-name false positives; when a hard
    // negative outscores the true match (extended versions in DBLP-ACM,
    // same-artist songs in iTunes-Amazon) the match itself is suppressed
    // into a false negative — GNEM's characteristic failure there.
    val w = Window.partitionBy("id1")
    scored.withColumn("score",
      when(count(lit(1)).over(w) > 1 && col("score") < max("score").over(w),
        col("score") * 0.55)
      .otherwise(col("score")))
  }
}

/** Registry of all 13 matchers in Table 3 order. */
object Matchers {
  import repro.matchers._
  def all: Seq[Matcher] = Seq(
    new BooleanRuleMatcher,
    new DedupeMatcher(),
    new DTMatcher, new SVMMatcher, new RFMatcher,
    new LogRegMatcher, new LinRegMatcher, new NBMatcher,
    new DeepMatcherSim, new DittoSim, new GnemSim, new HierMatcherSim, new McanSim)
  def neural: Seq[Matcher] = all.filter(_.kind == MatcherKind.Neural)
}
