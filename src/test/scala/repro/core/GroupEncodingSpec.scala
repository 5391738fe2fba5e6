package repro.core

import repro.{SparkSpec, TestPairs}

/** How the single lens encodes a record's groups as subgroup keys
  * (§3.2.1, Fig 1): a level-k key is k groups the record holds, sorted and
  * `&`-joined, and only subgroups some record holds get a key.
  */
class GroupEncodingSpec extends SparkSpec {

  private def counts(df: org.apache.spark.sql.DataFrame, lens: Lens): Map[String, Confusion] =
    ConfusionCube(df, Seq(0.5)).counts(0.5, lens)

  test("subgroup key is sorted and &-joined") {
    assert(Lens.Single(2).keys(Seq("Pop", "Female"), Nil) == Set("Female&Pop"))
  }

  test("membership: record covers the subgroup (Example of Fig 1)") {
    val femalePop = "Female&Pop"
    assert(Lens.Single(2).keys(Seq("Female", "Pop", "Rock"), Nil).contains(femalePop))
    assert(!Lens.Single(2).keys(Seq("Female", "Rock"), Nil).contains(femalePop))
    assert(Lens.Single(2).keys(Seq("Pop"), Nil).isEmpty)
  }

  test("occurring subgroups filter to those present in data") {
    val df = TestPairs.scored(spark, Seq(
      (1L, 2L, Seq("Female", "Pop"), Seq("Male", "Rock"), 1, 1.0),
      (3L, 4L, Seq("Female", "Rock"), Seq("Female", "Rock"), 0, 0.0)))
    // Male&Pop and Pop&Rock: no record holds the two groups together.
    assert(counts(df, Lens.Single(2)).keySet == Set("Female&Pop", "Female&Rock", "Male&Rock"))
  }
  test("occurring at level 1 lists all present groups") {
    val df = TestPairs.scored(spark, Seq((1L, 2L, Seq("a"), Seq("a"), 1, 1.0), (3L, 4L, Seq("b"), Seq("b"), 0, 0.0)))
    assert(counts(df, Lens.Single(1)).keySet == Set("a", "b"))
  }
}
