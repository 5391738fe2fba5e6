package repro.core

import org.apache.spark.ml.attribute.{Attribute, AttributeGroup, NumericAttribute}
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{array, col, udf}

import Similarity.Text

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
  * Features are named ``f_<attr>_<sim>`` so rules ([[MatchRule]]) and
  * model-inspection code can refer to them by name. The trained matchers
  * read them as one [[vector]] column; [[columns]] is the same features one
  * column each.
  */
object FeatureGen {

  /** A kind's features in order: (sim name, similarity of one value pair).
    * Every feature of a value reads the same [[Similarity.Text]], so a
    * long-text value is tokenized once for jac, cos and ovl.
    */
  private def sims(kind: AttrKind): Seq[(String, (Text, Text) => Double)] = {
    import Similarity._
    def raw(f: (String, String) => Double): (Text, Text) => Double = (a, b) => f(a.raw, b.raw)
    kind match {
      case AttrKind.ShortStr => Seq(("exact", raw(exactSim)), ("lev", raw(levenshteinSim)), ("jw", raw(jaroWinkler)))
      case AttrKind.LongText =>
        Seq(("jac", _ jaccard _), ("cos", _ cosine _), ("ovl", _ overlap _), ("lev", raw(levenshteinSim)))
      case AttrKind.Numeric  => Seq(("exact", raw(exactSim)), ("num", raw(numericSim)))
    }
  }

  private def name(a: AttrSpec, sim: String): String = s"f_${a.name}_$sim"

  /** Every generated feature of a schema as (name, expression over the
    * ``l_<attr>``/``r_<attr>`` columns), one UDF each, in [[vector]] order.
    */
  def columns(attrs: Seq[AttrSpec]): Seq[(String, Column)] = attrs.flatMap { a =>
    val (l, r) = (col(s"l_${a.name}"), col(s"r_${a.name}"))
    sims(a.kind).map { case (s, f) =>
      name(a, s) -> udf((x: String, y: String) => f(new Text(x), new Text(y))).apply(l, r)
    }
  }

  /** Names of the feature columns generated for one attribute. */
  def featureNames(attr: AttrSpec): Seq[String] = featureNames(Seq(attr))

  /** All feature names for a schema, in deterministic order. */
  def featureNames(attrs: Seq[AttrSpec]): Seq[String] =
    attrs.flatMap(a => sims(a.kind).map(s => name(a, s._1)))

  /** Adds all generated feature columns to a pair DataFrame. */
  def addFeatures(pairs: DataFrame, attrs: Seq[AttrSpec]): DataFrame =
    columns(attrs).foldLeft(pairs) { case (df, (name, c)) => df.withColumn(name, c) }

  /** Every generated feature of a pair as one vector column: the values of
    * [[columns]], in order, from one UDF call per pair.
    */
  def vector(attrs: Seq[AttrSpec]): Column = {
    val fs = attrs.map(a => sims(a.kind).map(_._2).toArray).toArray
    pairVector(attrs, featureNames(attrs)) { (l, r) =>
      fs.indices.toArray.flatMap { i =>
        val (a, b) = (new Text(l(i)), new Text(r(i)))
        fs(i).map(_(a, b))
      }
    }
  }

  /** A vector column named `features`: `kernel` maps a pair's
    * ``l_<attr>`` and ``r_<attr>`` values, in `attrs` order, to the features
    * `names`. Dense or sparse by `compressed`, and with one numeric ML
    * attribute per name, as MLlib's assembler of one column per feature
    * would give, so MLlib reads the width from the schema without a job.
    */
  def pairVector(attrs: Seq[AttrSpec], names: Seq[String])(
      kernel: (Seq[String], Seq[String]) => Array[Double]): Column = {
    val f = udf((l: Seq[String], r: Seq[String]) => Vectors.dense(kernel(l, r)).compressed)
    val meta = new AttributeGroup("features",
      names.map(n => NumericAttribute.defaultAttr.withName(n): Attribute).toArray).toMetadata()
    def side(s: String): Column = array(attrs.map(a => col(s"${s}_${a.name}")): _*)
    f(side("l"), side("r")).as("features", meta)
  }
}
