package repro.core

import org.apache.spark.ml.attribute.{Attribute, AttributeGroup, NumericAttribute}
import org.apache.spark.ml.functions.vector_to_array
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{array, col, udf}

import Similarity.Text

/** The one feature path of every matcher: Magellan-style automatic feature
  * generation (§5.1.4) and the one UDF that computes any matcher's features.
  *
  * For each attribute of the record schema, [[magellan]] generates similarity
  * features between the left (``l_<attr>``) and right (``r_<attr>``) values,
  * chosen by the attribute's kind — mirroring Magellan's type-aware feature
  * generator:
  *
  *  - ShortStr: exact, normalized Levenshtein, Jaro-Winkler
  *  - LongText: token Jaccard, TF cosine, overlap coefficient, Levenshtein
  *  - Numeric:  exact, relative numeric similarity
  *
  * Features are named ``f_<attr>_<sim>`` so rules ([[MatchRule]]) and
  * model-inspection code can refer to them by name. The neural matchers list
  * their encoder similarities as [[Feature]]s too; every matcher reads its
  * features as one [[vector]] column, and [[addFeatures]] is the same vector
  * one named column per feature.
  */
object FeatureGen {

  /** One feature of a pair: `fn` of the two records' texts of attribute
    * `attr` (its index in the schema), or of their serializations (every
    * non-null attribute value joined by a space, as `concat_ws(" ")` joins
    * them) when `attr` is None.
    */
  final case class Feature(name: String, attr: Option[Int], fn: (Text, Text) => Double)

  /** A similarity of two strings, applied to two texts' raw values. */
  def raw(f: (String, String) => Double): (Text, Text) => Double = (a, b) => f(a.raw, b.raw)

  /** A kind's features in order: (sim name, similarity of one value pair).
    * Every feature of a value reads the same [[Similarity.Text]], so a
    * long-text value is tokenized once for jac, cos and ovl.
    */
  private def sims(kind: AttrKind): Seq[(String, (Text, Text) => Double)] = {
    import Similarity._
    kind match {
      case AttrKind.ShortStr => Seq(("exact", raw(exactSim)), ("lev", raw(levenshteinSim)), ("jw", raw(jaroWinkler)))
      case AttrKind.LongText =>
        Seq(("jac", _ jaccard _), ("cos", _ cosine _), ("ovl", _ overlap _), ("lev", raw(levenshteinSim)))
      case AttrKind.Numeric  => Seq(("exact", raw(exactSim)), ("num", raw(numericSim)))
    }
  }

  /** Every generated Magellan feature of a schema, attribute by attribute. */
  def magellan(attrs: Seq[AttrSpec]): Seq[Feature] = attrs.zipWithIndex.flatMap { case (a, i) =>
    sims(a.kind).map { case (s, f) => Feature(s"f_${a.name}_$s", Some(i), f) }
  }

  /** All Magellan feature names for a schema, in [[vector]] order. */
  def featureNames(attrs: Seq[AttrSpec]): Seq[String] = magellan(attrs).map(_.name)

  /** Adds every Magellan feature to a pair frame as its own named column:
    * the [[vector]] computed once per row, then one column per name.
    */
  def addFeatures(pairs: DataFrame, attrs: Seq[AttrSpec]): DataFrame = {
    val (v, fs) = ("__features", magellan(attrs))
    pairs.withColumn(v, vector_to_array(vector(attrs, fs)))
      .select(col("*") +: fs.zipWithIndex.map { case (f, i) => col(v)(i).as(f.name) }: _*)
      .drop(v)
  }

  /** The values of `features`, in order, as one vector column named
    * `features`, from one UDF call per pair over its ``l_<attr>`` and
    * ``r_<attr>`` values. Each record gets one [[Text]] per attribute value
    * and at most one serialization. Dense or sparse by `compressed`, and
    * with one numeric ML attribute per feature, as MLlib's assembler of one
    * column per feature would give, so MLlib reads the width from the schema
    * without a job.
    */
  def vector(attrs: Seq[AttrSpec], features: Seq[Feature]): Column = {
    val fs = features.toArray
    def serialized(values: Seq[String]): Text = new Text(values.filter(_ != null).mkString(" "))
    val kernel = udf { (l: Seq[String], r: Seq[String]) =>
      val (a, b) = (l.map(new Text(_)), r.map(new Text(_)))
      lazy val (sa, sb) = (serialized(l), serialized(r))
      Vectors.dense(fs.map(f => f.attr.fold(f.fn(sa, sb))(i => f.fn(a(i), b(i))))).compressed
    }
    val meta = new AttributeGroup("features",
      fs.map(f => NumericAttribute.defaultAttr.withName(f.name): Attribute)).toMetadata()
    def side(s: String): Column = array(attrs.map(a => col(s"${s}_${a.name}")): _*)
    kernel(side("l"), side("r")).as("features", meta)
  }
}
