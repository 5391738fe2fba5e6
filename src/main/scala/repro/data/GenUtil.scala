package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** Shared helpers for the dataset generators: pair-row materialization into
  * the repo-wide pair schema (see [[repro.core.EMDataset]]) and deterministic
  * train/test splitting.
  */
object GenUtil {

  /** One candidate record pair; attribute values are positional w.r.t. the
    * dataset's attr list. Null values encode missing cells (dirty datasets).
    */
  final case class PairRow(
      id1: Long, id2: Long,
      l: Seq[String], r: Seq[String],
      g1: Seq[String], g2: Seq[String],
      label: Int)

  /** Materializes pair rows as a DataFrame with columns
    * id1, id2, l_&lt;attr&gt;…, r_&lt;attr&gt;…, g1, g2, label.
    *
    * The rows are built on the driver, so a `parallelize`d RDD carries them
    * inside its partitions and every task of every later job would ship its
    * slice again. An eager `localCheckpoint` materializes the frame once, in
    * the generating job, and cuts that lineage: later tasks read local
    * blocks. `cache()` would not help: a cached plan keeps its lineage, so
    * downstream partitions still hold the rows and tasks still carry them.
    * The checkpoint keeps the 8 partitions with the same rows in the same
    * order, so splits and per-partition bootstraps are unchanged.
    */
  def pairsDF(spark: SparkSession, attrs: Seq[String], rows: Seq[PairRow]): DataFrame = {
    val schema = StructType(
      Seq(StructField("id1", LongType), StructField("id2", LongType)) ++
        attrs.map(a => StructField(s"l_$a", StringType, nullable = true)) ++
        attrs.map(a => StructField(s"r_$a", StringType, nullable = true)) ++
        Seq(
          StructField("g1", ArrayType(StringType)),
          StructField("g2", ArrayType(StringType)),
          StructField("label", IntegerType),
        )
    )
    val data = rows.map { p =>
      require(p.l.size == attrs.size && p.r.size == attrs.size,
        s"pair row arity ${p.l.size}/${p.r.size} != ${attrs.size} attrs")
      Row.fromSeq(Seq(p.id1, p.id2) ++ p.l ++ p.r ++ Seq(p.g1, p.g2, p.label))
    }
    spark.createDataFrame(spark.sparkContext.parallelize(data, 8), schema).localCheckpoint()
  }

  /** Deterministic split on a stable per-pair hash (independent of row order). */
  def split(df: DataFrame, trainFrac: Double, seed: Long): (DataFrame, DataFrame) = {
    import org.apache.spark.sql.functions._
    val bucket = pmod(hash(col("id1"), col("id2"), lit(seed)), lit(1000))
    val cut    = (trainFrac * 1000).toInt
    (df.filter(bucket < cut), df.filter(bucket >= cut))
  }

  /** Deterministic keep/drop decision for subsampling, stable in (ids, seed). */
  def keep(id1: Long, id2: Long, seed: Long, frac: Double): Boolean = {
    var h = id1 * 0x9E3779B97F4A7C15L + id2 * 0xC2B2AE3D27D4EB4FL + seed
    h ^= (h >>> 33); h *= 0xFF51AFD7ED558CCDL; h ^= (h >>> 33)
    ((h >>> 11).toDouble / (1L << 53).toDouble) < frac
  }
}
