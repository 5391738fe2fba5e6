package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Audit, ConfusionCube, Fairness, Lens}
import repro.data.Social
import repro.eval.{Tables => T}

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** The paper's tables, each printed as `bench/reference/Table<N>.txt` holds
  * it, in the order asked: `spark-submit --class repro.jobs.Tables … 4 5 6 7 9`.
  * One session renders them all, so they share its datasets, fits and cubes.
  */
object Tables {
  private val render: Map[String, SparkSession => String] = Map(
    "4" -> (s => T.render4(T.allDatasets(s).map(T.overview))),
    "5" -> (s => T.render5(T.table5(s))),
    "6" -> (s => T.render6(T.table6(s))),
    "7" -> { s => val dss = T.table7Datasets(s); T.render7(dss.map(_.name), dss.flatMap(T.sensitivity(_))) },
    "9" -> { s => val dss = T.allDatasets(s); T.render9(dss.map(_.name), dss.flatMap(T.correctness(_))) })

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty && args.forall(render.contains),
      s"usage: repro.jobs.Tables <N>... with each N one of 4 5 6 7 9; got: ${args.mkString(" ")}")
    val spark = JobSession.session("tables")
    for (n <- args) print(render(n)(spark))
    spark.stop()
  }
}

/** Full Algorithm-1 audit demo: discriminated groups of one matcher on one
  * dataset under both lenses, all measures. Args: none (defaults) — a
  * template for custom audits.
  */
object AuditDemo {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("audit-demo")
    val ds = Social.facultyMatch(spark)
    val m = new repro.matchers.neural.DittoSim
    val cube = ConfusionCube(m.fit(ds).scores(ds.test), Seq(0.5))
    for (lens <- Seq(Lens.Single, Lens.Pairwise)) {
      val res = Audit.fromCube(cube, 0.5, lens, Fairness.all, minSupport = 10)
      println(s"== ${m.name} on ${ds.name} ($lens) ==")
      for (measure <- Fairness.all) {
        val unfair = res.unfairGroups(measure)
        if (unfair.nonEmpty) println(f"  ${measure.abbrev}%-5s unfair for: ${unfair.mkString(", ")}")
      }
      val eo = res.unfairGroupsEO()
      if (eo.nonEmpty) println(f"  EO    unfair for: ${eo.mkString(", ")}")
    }
    println(s"overall confusion @0.5: ${cube.overall(0.5)}")
    spark.stop()
  }
}
