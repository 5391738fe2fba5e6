package repro.perfbench

import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.data.{EMBench, Social}
import repro.eval.Tables
import repro.matchers._
import repro.matchers.neural._

/** One (table, dataset, matcher) cell: the rows it prints, or why it has none. */
final case class Cell(key: String, rows: Seq[String], refused: Boolean, error: Option[String])

object Cell {
  /** Runs `body` for one cell; anything it throws fails that cell only. */
  def of(key: String)(body: => Option[Seq[String]]): Cell =
    try body match {
      case Some(rows) => Cell(key, rows, refused = false, None)
      case None       => Cell(key, Nil, refused = true, None)
    } catch { case NonFatal(e) => Cell(key, Nil, refused = false, Some(e.toString)) }
}

/** A named workload. `run` goes through the public table harnesses of
  * [[repro.eval.Tables]], as users render tables; `staged` does the same
  * work one layer call at a time, each call under a span of `stage`.
  * Both return the same cells.
  */
trait Workload {
  def name: String
  def run(spark: SparkSession, seed: Long): Seq[Cell]
  def staged(spark: SparkSession, seed: Long, stage: Tracer): Seq[Cell]
  /** Datasets whose test split feeds the forced feature-generation probe
    * and whose attribute values feed the kernel microbenchmarks.
    */
  def probeData(spark: SparkSession, seed: Long): Seq[EMDataset]
}

object Workloads {

  /** Generators at a benchmark seed. Seed n shifts each generator's own
    * default seed by n, so seed 0 builds exactly the committed tables' data.
    */
  object Gen {
    def facultyMatch(s: SparkSession, seed: Long) = Social.facultyMatch(s, seed = 42 + seed)
    def iTunesAmazon(s: SparkSession, seed: Long) = EMBench.iTunesAmazon(s, seed = 11 + seed)
  }

  /** The paper's refusals (§5.1.4): Dedupe does not scale to these datasets. */
  val expectedRefusals: Set[(String, String)] =
    Set("FacultyMatch", "NoFlyCompas", "Shoes", "Cameras").map(_ -> "Dedupe")

  def expectRefusal(key: String): Boolean = key.split('/') match {
    case Array(_, ds, m) => expectedRefusals((ds, m))
    case _               => false
  }

  // ------------------------------------------------------------------
  // Shared stage-by-stage pieces
  // ------------------------------------------------------------------

  /** Fits `m` and materializes its scored test split in the cache; None
    * when the matcher refuses the dataset.
    */
  private def fitAndScore(m: Matcher, ds: EMDataset, stage: Tracer): Option[DataFrame] =
    (try Some(stage("matchers", s"fit.${kindName(m.kind)}.${m.name}")(m.fit(ds)))
     catch { case _: MatcherNotScalable => None })
      .map { fitted =>
        stage("matchers", s"score.${m.name}") {
          val scored = fitted.scores(ds.test).cache()
          scored.count()
          scored
        }
      }

  def kindName(k: MatcherKind): String = k match {
    case MatcherKind.RuleBased => "rule"
    case MatcherKind.NonNeural => "nonneural"
    case MatcherKind.Neural    => "neural"
  }

  def table7Row(r: Tables.SensitivityRow): String =
    f"${r.dataset}%-15s ${r.matcher}%-20s TPRP=${r.tprpSens}%5.1f PPVP=${r.ppvpSens}%5.1f"

  def table9Row(r: Tables.CorrectnessRow): String =
    f"${r.dataset}%-15s ${r.matcher}%-20s acc=${r.acc}%5.2f f1=${r.f1}%5.2f"

  // ------------------------------------------------------------------
  // social: Table 6
  // ------------------------------------------------------------------

  /** Table 6 on FacultyMatch, the largest input: per-job driver overhead
    * with the source rows shipped in every task, and feature generation over
    * 37 k test pairs; one audit per matcher at one τ.
    */
  object SocialWorkload extends Workload {
    val name = "social"

    /** The fit paths that fit the run: rule, Dedupe (refuses FacultyMatch)
      * and a tree ensemble.
      */
    def matchers: Seq[Matcher] = Seq(new BooleanRuleMatcher, new DedupeMatcher(), new RFMatcher)

    private def render(rows: Seq[Tables.SocialRow]): Seq[String] =
      Tables.renderSocial("Table 6: FacultyMatch", "TPR", "PPV", "cn", "de", rows)
        .split("\n").toSeq.drop(2)

    def run(spark: SparkSession, seed: Long): Seq[Cell] = {
      val ds = Gen.facultyMatch(spark, seed)
      matchers.map { m =>
        Cell.of(s"T6/${ds.name}/${m.name}") {
          Some(Tables.socialTable(ds, "cn", "de", Fairness.TPRP, Fairness.PPVP, Seq(m)))
            .filter(_.nonEmpty).map(render)
        }
      }
    }

    def staged(spark: SparkSession, seed: Long, stage: Tracer): Seq[Cell] = {
      val ds = stage("data", "gen.FacultyMatch")(Gen.facultyMatch(spark, seed))
      matchers.map { m =>
        Cell.of(s"T6/${ds.name}/${m.name}") {
          fitAndScore(m, ds, stage).map { scored =>
            val byGroup = stage("audit", s"single.${m.name}") {
              try ConfusionCounts.single(scored, 0.5) finally scored.unpersist()
            }
            stage("eval", s"render.${m.name}") {
              def v(measure: Fairness.Measure, g: String): Double =
                byGroup.get(g).flatMap(measure.value).getOrElse(Double.NaN)
              def cols(measure: Fairness.Measure): (Double, Double, Double, Double) = {
                val (g, r) = (v(measure, "cn"), v(measure, "de"))
                (g, r, Fairness.subVsRef(g, r, measure.direction), Fairness.divVsRef(g, r, measure.direction))
              }
              val (g1, r1, s1, d1) = cols(Fairness.TPRP)
              val (g2, r2, s2, d2) = cols(Fairness.PPVP)
              render(Seq(Tables.SocialRow(m.name, m.kind, g1, r1, s1, d1, g2, r2, s2, d2)))
            }
          }
        }
      }
    }

    def probeData(spark: SparkSession, seed: Long): Seq[EMDataset] = Seq(Gen.facultyMatch(spark, seed))
  }

  // ------------------------------------------------------------------
  // sweep: Table 7, then the Table 9 column, on one dataset instance
  // ------------------------------------------------------------------

  /** Table 7 then Table 9 on one iTunes-Amazon instance: a tiny input, so
    * the 14-τ audit loop and the second fit of the same matcher dominate.
    */
  object SweepWorkload extends Workload {
    val name = "sweep"

    /** LinRegMatcher: a one-pass fit with a non-zero Table 7 cell; the
      * L-BFGS matchers cost more than the run budget holds.
      */
    def matchers: Seq[Matcher] = Seq(new LinRegMatcher)

    def run(spark: SparkSession, seed: Long): Seq[Cell] = {
      val ds = Gen.iTunesAmazon(spark, seed)
      val t7 = matchers.map { m =>
        Cell.of(s"T7/${ds.name}/${m.name}") {
          Some(Tables.sensitivity(ds, Seq(m))).filter(_.nonEmpty).map(_.map(table7Row))
        }
      }
      val t9 = matchers.map { m =>
        Cell.of(s"T9/${ds.name}/${m.name}") {
          Some(Tables.correctness(ds, Seq(m))).filterNot(_.exists(_.acc.isNaN)).map(_.map(table9Row))
        }
      }
      t7 ++ t9
    }

    def staged(spark: SparkSession, seed: Long, stage: Tracer): Seq[Cell] = {
      val ds = stage("data", "gen.iTunes-Amazon")(Gen.iTunesAmazon(spark, seed))
      val t7 = matchers.map { m =>
        Cell.of(s"T7/${ds.name}/${m.name}") {
          fitAndScore(m, ds, stage).map { scored =>
            val (t, p) = stage("audit", s"sweep.${m.name}") {
              val results = Audit.sweep(scored, Tables.sweepTaus, measures = Seq(Fairness.TPRP, Fairness.PPVP))
              (Audit.thresholdSensitivity(results, Fairness.TPRP), Audit.thresholdSensitivity(results, Fairness.PPVP))
            }
            stage("eval", s"render7.${m.name}")(Seq(table7Row(Tables.SensitivityRow(ds.name, m.name, t, p))))
          }
        }
      }
      val t9 = matchers.map { m =>
        Cell.of(s"T9/${ds.name}/${m.name}") {
          fitAndScore(m, ds, stage).map { scored =>
            val c = stage("audit", s"overall.${m.name}") {
              try ConfusionCounts.overall(scored, Tables.thresholdFor(ds.name)) finally scored.unpersist()
            }
            stage("eval", s"render9.${m.name}") {
              Seq(table9Row(Tables.CorrectnessRow(ds.name, m.name, m.kind, Audit.accuracy(c), Audit.f1(c))))
            }
          }
        }
      }
      t7 ++ t9
    }

    def probeData(spark: SparkSession, seed: Long): Seq[EMDataset] = Seq(Gen.iTunesAmazon(spark, seed))
  }

  val all: Seq[Workload] = Seq(SocialWorkload, SweepWorkload)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
