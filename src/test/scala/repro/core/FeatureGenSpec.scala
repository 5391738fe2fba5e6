package repro.core

import repro.AssembledCheck

class FeatureGenSpec extends AssembledCheck {

  test("featureNames per kind") {
    assert(FeatureGen.featureNames(Seq(AttrSpec("a", AttrKind.ShortStr))) ==
      Seq("f_a_exact", "f_a_lev", "f_a_jw"))
    assert(FeatureGen.featureNames(Seq(AttrSpec("a", AttrKind.LongText))) ==
      Seq("f_a_jac", "f_a_cos", "f_a_ovl", "f_a_lev"))
    assert(FeatureGen.featureNames(Seq(AttrSpec("a", AttrKind.Numeric))) ==
      Seq("f_a_exact", "f_a_num"))
  }
  test("featureNames of the schema is the concatenation") {
    assert(FeatureGen.featureNames(attrs).size == 3 + 4 + 2)
  }

  test("addFeatures appends every feature column") {
    val out = FeatureGen.addFeatures(pairs, attrs)
    assert(FeatureGen.featureNames(attrs).forall(out.columns.contains))
  }
  test("feature values for a near-match pair") {
    val out = FeatureGen.addFeatures(pairs, attrs).filter("id1 = 1").head()
    assert(out.getAs[Double]("f_name_lev") > 0.8) // brown/browne
    assert(out.getAs[Double]("f_title_jac") == 1.0) // reordered tokens
    assert(out.getAs[Double]("f_year_exact") == 1.0)
    assert(out.getAs[Double]("f_name_exact") == 0.0)
  }
  test("feature values for a clear non-match pair") {
    val out = FeatureGen.addFeatures(pairs, attrs).filter("id1 = 3").head()
    assert(out.getAs[Double]("f_title_jac") == 0.0)
    assert(out.getAs[Double]("f_name_exact") == 0.0)
    assert(out.getAs[Double]("f_year_num") < 1.0)
  }
  test("null attribute values give zero similarity, not null features") {
    val out = FeatureGen.addFeatures(pairs, attrs).filter("id1 = 5").head()
    assert(out.getAs[Double]("f_name_lev") == 0.0)
    assert(out.getAs[Double]("f_title_cos") == 0.0)
    assert(out.getAs[Double]("f_year_num") == 0.0)
  }
  test("all features are within [0,1]") {
    val out = FeatureGen.addFeatures(pairs, attrs)
    for (f <- FeatureGen.featureNames(attrs); r <- out.select(f).collect()) {
      val v = r.getDouble(0)
      assert(v >= 0.0 && v <= 1.0 + 1e-9, s"$f = $v")
    }
  }

  test("vector equals the assembled per-feature columns on every row") {
    for ((name, df, as) <- splits)
      assertAssembled(name, df, FeatureGen.vector(as, FeatureGen.magellan(as)), AssembledCheck.magellanColumns(as))
  }
}
