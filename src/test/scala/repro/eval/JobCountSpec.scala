package repro.eval

import repro.{SparkJobs, SparkSpec, TestPairs}
import repro.core._
import repro.data.EMBench
import repro.matchers.{DedupeMatcher, LinRegMatcher}

/** Every row count on the table path is one Spark job of one stage
  * ([[Counts]]): no shuffle, no adaptive query stage.
  */
class JobCountSpec extends SparkSpec {

  test("a confusion cube over a materialized scored frame is one job of one stage") {
    val scored = TestPairs.appendixB(spark)
    val (cube, n) = SparkJobs.count(spark)(ConfusionCube(scored, Tables.taus))
    assert(n == SparkJobs.Count(jobs = 1, stages = 1))
    assert(cube.overall(0.5) == Confusion(1, 1, 1, 1))
  }

  test("Dedupe refuses FacultyMatch after one job that counts both splits") {
    val faculty = Tables.allDatasets(spark).find(_.name == "FacultyMatch").get
    val (_, n) = SparkJobs.count(spark) {
      intercept[MatcherNotScalable](DedupeMatcher().fit(faculty))
    }
    assert(n.jobs == 1, n)
  }

  // The class count, the weighted least-squares pass and the cube.
  test("Table 9's LinRegMatcher cell on a fresh iTunes-Amazon instance runs at most 3 jobs") {
    val ds = EMBench.iTunesAmazon(spark)
    val (rows, n) = SparkJobs.count(spark)(Tables.correctness(ds, Seq(LinRegMatcher())))
    assert(rows.size == 1 && !rows.head.acc.isNaN)
    assert(n.jobs <= 3, n)
  }
}
