package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.col

/** Magellan-style automatic feature generation (§5.1.4).
  *
  * For each attribute of the record schema, generates similarity features
  * between the left (``l_<attr>``) and right (``r_<attr>``) values, chosen by
  * the attribute's kind — mirroring Magellan's type-aware feature generator:
  *
  *  - ShortStr: exact, normalized Levenshtein, Jaro-Winkler
  *  - LongText: token Jaccard, TF cosine, overlap coefficient, Levenshtein
  *  - Numeric:  exact, relative numeric similarity
  *
  * Feature columns are named ``f_<attr>_<sim>`` so rules ([[MatchRule]]) and
  * model-inspection code can refer to them by name.
  */
object FeatureGen {

  /** Every generated feature of a schema as (name, expression over the
    * ``l_<attr>``/``r_<attr>`` columns), in deterministic order. The one
    * place a feature is named.
    */
  def columns(attrs: Seq[AttrSpec]): Seq[(String, Column)] = attrs.flatMap { a =>
    import Similarity._
    val (l, r) = (col(s"l_${a.name}"), col(s"r_${a.name}"))
    val sims = a.kind match {
      case AttrKind.ShortStr => Seq("exact" -> exact(l, r), "lev" -> levSim(l, r), "jw" -> jaroWinklerSim(l, r))
      case AttrKind.LongText =>
        Seq("jac" -> jaccardSim(l, r), "cos" -> cosineSim(l, r), "ovl" -> overlapSim(l, r), "lev" -> levSim(l, r))
      case AttrKind.Numeric  => Seq("exact" -> exact(l, r), "num" -> numSim(l, r))
    }
    sims.map { case (s, c) => s"f_${a.name}_$s" -> c }
  }

  /** Names of the feature columns generated for one attribute. */
  def featureNames(attr: AttrSpec): Seq[String] = featureNames(Seq(attr))

  /** All feature column names for a schema, in deterministic order. */
  def featureNames(attrs: Seq[AttrSpec]): Seq[String] = columns(attrs).map(_._1)

  /** Adds all generated feature columns to a pair DataFrame. */
  def addFeatures(pairs: DataFrame, attrs: Seq[AttrSpec]): DataFrame =
    columns(attrs).foldLeft(pairs) { case (df, (name, c)) => df.withColumn(name, c) }
}
