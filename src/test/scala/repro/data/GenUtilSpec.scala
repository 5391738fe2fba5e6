package repro.data

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}

import repro.SparkSpec
import repro.data.GenUtil.PairRow

/** `GenUtil.pairsDF` materializes each generated frame once: no later task
  * may carry the driver-built rows, and the partitioning every split and
  * bootstrap depends on must be that of the plain `parallelize`d frame.
  */
class GenUtilSpec extends SparkSpec {

  private def lineage(rdd: RDD[_]): Seq[RDD[_]] =
    rdd +: rdd.dependencies.flatMap(d => lineage(d.rdd))

  private def partitions(df: DataFrame): Seq[Seq[Row]] =
    df.rdd.glom().collect().map(_.toSeq).toSeq

  test("a generated dataset's splits no longer reach the driver-built rows") {
    val ds = EMBench.iTunesAmazon(spark)
    for (split <- Seq(ds.train, ds.test)) {
      val classes = lineage(split.rdd).map(_.getClass.getSimpleName)
      assert(!classes.contains("ParallelCollectionRDD"), classes.mkString(" <- "))
      assert(split.rdd.getNumPartitions == 8)
    }
  }

  test("pairsDF keeps the 8 partitions of the plain frame, row for row and in order") {
    val attrs = Seq("name", "city")
    val rows = (0 until 203).map { i =>
      PairRow(i.toLong, (1000 - i).toLong,
        Seq(s"l$i", if (i % 7 == 0) null else s"c${i % 5}"),
        Seq(s"r$i", s"c${i % 3}"),
        Seq(s"g${i % 4}"), (0 until i % 3).map(j => s"h$j"), i % 2)
    }
    val df = GenUtil.pairsDF(spark, attrs, rows)
    val plain = spark.createDataFrame(
      spark.sparkContext.parallelize(
        rows.map(p => Row.fromSeq(Seq(p.id1, p.id2) ++ p.l ++ p.r ++ Seq(p.g1, p.g2, p.label))), 8),
      df.schema)
    assert(df.rdd.getNumPartitions == 8)
    assert(partitions(df) == partitions(plain))
  }
}
