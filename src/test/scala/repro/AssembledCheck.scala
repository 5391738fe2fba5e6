package repro

import org.apache.spark.ml.attribute.AttributeGroup
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, udf}

import repro.core.{AttrKind, AttrSpec, Similarity}
import repro.data.{EMBench, GenUtil, Social}
import repro.data.GenUtil.PairRow

/** A feature vector built by one UDF per pair against the same features one
  * UDF column each, assembled by MLlib's `VectorAssembler`.
  */
trait AssembledCheck extends SparkSpec {

  protected val attrs = Seq(
    AttrSpec("name", AttrKind.ShortStr),
    AttrSpec("title", AttrKind.LongText),
    AttrSpec("year", AttrKind.Numeric))

  protected lazy val pairs = GenUtil.pairsDF(spark, attrs.map(_.name), Seq(
    PairRow(1, 2, Seq("brown", "efficient query processing", "2001"),
                  Seq("browne", "query processing efficient", "2001"), Seq("x"), Seq("x"), 1),
    PairRow(3, 4, Seq("smith", "stream mining", "1999"),
                  Seq("jones", "graph indexing", "2005"), Seq("x"), Seq("y"), 0),
    PairRow(5, 6, Seq(null, "a", "1"), Seq("x", null, null), Seq("x"), Seq("y"), 0),
  ))

  /** (name, pair frame, schema): the null-bearing `pairs` and the
    * iTunes-Amazon and FacultyMatch test splits.
    */
  protected lazy val splits: Seq[(String, DataFrame, Seq[AttrSpec])] = {
    val (it, fm) = (EMBench.iTunesAmazon(spark), Social.facultyMatch(spark))
    Seq(("null-bearing pairs", pairs, attrs), (it.name, it.test, it.attrs), (fm.name, fm.test, fm.attrs))
  }

  /** `fused` equals `perFeature`'s columns assembled by a VectorAssembler on
    * every row of `df`: the same vector class, bit-identical doubles, and the
    * same ML attribute metadata (names and size).
    */
  protected def assertAssembled(what: String, df: DataFrame, fused: Column, perFeature: Seq[(String, Column)]): Unit = {
    val names = perFeature.map(_._1)
    val both = new VectorAssembler().setInputCols(names.toArray).setOutputCol("assembled")
      .transform(perFeature.foldLeft(df) { case (d, (n, c)) => d.withColumn(n, c) })
      .withColumn("fused", fused)
    val group = AttributeGroup.fromStructField(both.schema("fused"))
    assert(group.size == names.size && group.attributes.get.map(_.name.get).toSeq == names, what)
    assert(both.schema("fused").metadata == both.schema("assembled").metadata, what)
    val rows = both.select("assembled", "fused").collect()
    def bits(v: Vector): Seq[Long] = v.toArray.toSeq.map(java.lang.Double.doubleToRawLongBits)
    for (r <- rows) {
      val (a, f) = (r.getAs[Vector](0), r.getAs[Vector](1))
      assert(a.getClass == f.getClass && bits(a) == bits(f), s"$what: assembled $a, fused $f")
    }
  }
}

object AssembledCheck {

  /** Every Magellan feature of a schema as its own UDF column of the
    * matching [[Similarity]] String measure, named and ordered as
    * `FeatureGen.featureNames` lists them.
    */
  def magellanColumns(attrs: Seq[AttrSpec]): Seq[(String, Column)] = attrs.flatMap { a =>
    import Similarity._
    val sims: Seq[(String, (String, String) => Double)] = a.kind match {
      case AttrKind.ShortStr => Seq(("exact", exactSim), ("lev", levenshteinSim), ("jw", jaroWinkler))
      case AttrKind.LongText =>
        Seq(("jac", tokenJaccard), ("cos", tfCosine), ("ovl", overlapCoeff), ("lev", levenshteinSim))
      case AttrKind.Numeric  => Seq(("exact", exactSim), ("num", numericSim))
    }
    sims.map { case (s, f) => s"f_${a.name}_$s" -> udf(f).apply(col(s"l_${a.name}"), col(s"r_${a.name}")) }
  }
}
