package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Audit, ConfusionCube, Fairness, Lens}
import repro.data.Social
import repro.eval.Tables

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

/** Table 4: dataset overview. `spark-submit --class repro.jobs.Table4 …` */
object Table4 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("table4")
    for (r <- Tables.allDatasets(spark).map(Tables.overview))
      println(f"${r.dataset}%-15s train=${r.train}%7d test=${r.test}%7d pos=${r.posPct}%5.2f%% attrs=${r.nAttrs}%2d sens=${r.sensAttr}")
    spark.stop()
  }
}

/** Table 5: NoFlyCompas audit. */
object Table5 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("table5")
    println(Tables.renderSocial("Table 5: NoFlyCompas", "TPR", "FDR", "Afr", "Cauc",
      Tables.table5(spark)))
    spark.stop()
  }
}

/** Table 6: FacultyMatch audit. */
object Table6 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("table6")
    println(Tables.renderSocial("Table 6: FacultyMatch", "TPR", "PPV", "cn", "de",
      Tables.table6(spark)))
    spark.stop()
  }
}

/** Table 7: threshold sensitivity on the four benchmark datasets. */
object Table7 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("table7")
    for (ds <- Tables.table7Datasets(spark); r <- Tables.sensitivity(ds))
      println(f"${r.dataset}%-15s ${r.matcher}%-20s TPRP=${r.tprpSens}%5.1f PPVP=${r.ppvpSens}%5.1f")
    spark.stop()
  }
}

/** Table 9: correctness of all matchers across all datasets. */
object Table9 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("table9")
    for (ds <- Tables.allDatasets(spark); r <- Tables.correctness(ds))
      println(f"${r.dataset}%-15s ${r.matcher}%-20s acc=${r.acc}%5.2f f1=${r.f1}%5.2f")
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
