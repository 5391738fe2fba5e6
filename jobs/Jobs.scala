package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Audit, ConfusionCube, Fairness, Lens}
import repro.data.EMBench
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

/** Full Algorithm-1 audit demo: the discriminated groups of Ditto on
  * iTunes-Amazon, whose sensitive attribute (genre) is setwise, under the
  * single lens at levels 1 and 2 (genres, then pairs of genres a song
  * carries together, §3.2.1) and under the pairwise lens, for all measures.
  * Args: none — a template for custom audits.
  */
object AuditDemo {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("audit-demo")
    val ds = EMBench.iTunesAmazon(spark)
    val m = new repro.matchers.neural.DittoSim
    val tau = T.thresholdFor(ds.name)
    val cube = ConfusionCube(ds.fitted(m).get.scores(ds.test), Seq(tau))
    for (lens <- Seq(Lens.Single(1), Lens.Single(2), Lens.Pairwise)) {
      val res = Audit.fromCube(cube, tau, lens, Fairness.all)
      println(s"== ${m.name} on ${ds.name} ($lens): ${res.cells.map(_.group).distinct.size} valid groups ==")
      for (measure <- Fairness.all) {
        val unfair = res.unfairGroups(measure)
        if (unfair.nonEmpty) println(f"  ${measure.abbrev}%-5s unfair for: ${unfair.mkString(", ")}")
      }
      val eo = res.unfairGroupsEO
      if (eo.nonEmpty) println(f"  EO    unfair for: ${eo.mkString(", ")}")
    }
    println(s"overall confusion @$tau: ${cube.overall(tau)}")
    spark.stop()
  }
}
