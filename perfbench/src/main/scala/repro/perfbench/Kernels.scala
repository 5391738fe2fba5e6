package repro.perfbench

import scala.util.Random

import org.apache.spark.sql.functions.col

import repro.core.{EMDataset, Similarity}
import repro.matchers.neural.TextEncoder

/** Single-threaded microbenchmarks of the plain-Scala kernels behind the
  * feature and neural-matcher UDFs, on attribute-value pairs drawn from the
  * workload's own test splits.
  */
object Kernels {

  /** Kernel name -> call on one (left, right) value pair. */
  val all: Seq[(String, (String, String) => Double)] = Seq(
    "levenshteinSim" -> Similarity.levenshteinSim,
    "jaroWinkler"    -> Similarity.jaroWinkler,
    "tokenJaccard"   -> Similarity.tokenJaccard,
    "overlapCoeff"   -> Similarity.overlapCoeff,
    "tfCosine"       -> Similarity.tfCosine,
    "numericSim"     -> Similarity.numericSim,
    "embed"          -> ((a: String, _: String) => TextEncoder.embed(a)(0)),
    "textCos"        -> TextEncoder.textCos,
    "align"          -> TextEncoder.align,
    "normJaccard"    -> TextEncoder.normJaccard,
  )

  /** A fixed sample of `n` non-null (left, right) attribute-value pairs from
    * the datasets' test splits, chosen by `seed`.
    */
  def sample(datasets: Seq[EMDataset], n: Int, seed: Long): IndexedSeq[(String, String)] = {
    val pool = datasets.flatMap { ds =>
      ds.attrNames.flatMap { a =>
        ds.test.select(col("id1"), col("id2"), col(s"l_$a"), col(s"r_$a"))
          .na.drop().collect()
          .map(r => ((ds.name, a, r.getLong(0), r.getLong(1)), (r.getString(2), r.getString(3))))
      }
    }.sortBy(_._1).map(_._2)
    new Random(seed).shuffle(pool).take(n).toIndexedSeq
  }

  @volatile private var sink = 0.0

  /** Median nanoseconds per call of each kernel over `pairs`: two warm-up
    * passes, then `passes` timed passes.
    */
  def time(pairs: IndexedSeq[(String, String)], passes: Int = 5): Seq[(String, Double)] =
    all.map { case (name, f) =>
      def pass(): Long = {
        var acc = 0.0
        val t0 = System.nanoTime
        var i = 0
        while (i < pairs.size) { acc += f(pairs(i)._1, pairs(i)._2); i += 1 }
        val dt = System.nanoTime - t0
        sink += acc
        dt
      }
      pass(); pass()
      name -> Stats.median(Seq.fill(passes)(pass().toDouble / pairs.size))
    }
}
