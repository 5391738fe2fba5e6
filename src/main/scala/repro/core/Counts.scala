package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{Column, DataFrame, Row}

/** The one row-counting primitive of the table path: the number of rows of a
  * frame per distinct value of `keys` (one key of no columns, `Row()`, counts
  * every row). Each task counts its partition's keys in a hash map and the
  * driver adds the per-partition maps up: one Spark job of one stage on top
  * of `df`'s own plan, with no exchange and so no adaptive query stage. A
  * cached `df` is filled by that same job. Counts are sums of `Long`s, so
  * they equal a SQL group-by count of the same keys exactly.
  */
object Counts {
  def by(df: DataFrame, keys: Column*): Map[Row, Long] = {
    val perPartition = df.select(keys: _*).rdd.mapPartitions { rows =>
      val n = mutable.HashMap.empty[Row, Long]
      rows.foreach(r => n(r) = n.getOrElse(r, 0L) + 1L)
      Iterator.single(n)
    }.collect()
    perPartition.foldLeft(Map.empty[Row, Long]) { (acc, n) =>
      n.foldLeft(acc) { case (m, (k, c)) => m.updated(k, m.getOrElse(k, 0L) + c) }
    }
  }
}
