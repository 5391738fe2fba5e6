package repro.core

import org.apache.spark.sql.DataFrame

/** Attribute kind, drives automatic feature generation (Magellan-style) and
  * rule construction for the BooleanRuleMatcher.
  */
sealed trait AttrKind
object AttrKind {
  /** Short atomic string (name, venue, status) — exact + edit-distance features. */
  case object ShortStr extends AttrKind
  /** Long text (title, description) — token-based features. */
  case object LongText extends AttrKind
  /** Numeric value (year, price, time) — exact + relative-difference features. */
  case object Numeric extends AttrKind
}

/** One attribute of an EM dataset's record schema. */
final case class AttrSpec(name: String, kind: AttrKind)

/** A matching rule for the BooleanRuleMatcher: a similarity feature compared
  * against a threshold. ``feature`` must be one of the generated feature
  * column names (see [[FeatureGen]]).
  */
final case class MatchRule(feature: String, threshold: Double)

/** A labeled entity-matching dataset in the pair representation used
  * throughout this repo.
  *
  * Both ``train`` and ``test`` contain one row per candidate record pair:
  *  - `id1`, `id2` (long): record identifiers on each side;
  *  - `l_<attr>` / `r_<attr>` (string): attribute values of the left/right
  *    record — always strings; numeric attrs are parsed by the feature
  *    generator (nulls encode missing values in dirty datasets);
  *  - `g1`, `g2` (array<string>): sensitive groups of the left/right record
  *    (singleton for binary/multi-valued sensitive attributes, multiple
  *    entries for setwise attributes such as genre);
  *  - `label` (int): ground truth, 1 = match, 0 = non-match.
  *
  * @param ruleAttrs rules "handpicked" for the BooleanRuleMatcher, mirroring
  *                  the per-dataset rule selection of §5.1.4.
  */
final case class EMDataset(
    name: String,
    attrs: Seq[AttrSpec],
    sensitiveAttr: String,
    train: DataFrame,
    test: DataFrame,
    ruleAttrs: Seq[MatchRule],
) {
  def attrNames: Seq[String] = attrs.map(_.name)

  /** The confusion cube of each matcher fitted on this instance, keyed by the
    * matcher value; `None` when the matcher refused. Filled by
    * [[repro.eval.Tables]]. A body field, so equality and `copy` ignore it and
    * a copy (say, with another split) starts empty. Read and written under
    * the instance's lock, as [[fitted]] is.
    */
  private[repro] val cubes = scala.collection.mutable.Map.empty[Matcher, Option[ConfusionCube]]

  /** The fit of each matcher value on this instance; `None` when it refused.
    * A body field like [[cubes]]. Each fit (with its MLlib model) is kept for
    * as long as the instance lives, not only until its cube is built.
    */
  private val fits = scala.collection.mutable.Map.empty[Matcher, Option[FittedMatcher]]

  /** `m` fitted on this instance on the first call for its value, and read
    * back after; None when `m` refuses the dataset. A fit that reads another
    * matcher's (GNEM reads Ditto's) re-enters the lock, so the entry is
    * inserted only after the fit returns.
    */
  private[repro] def fitted(m: Matcher): Option[FittedMatcher] = synchronized {
    fits.getOrElse(m, {
      val f = try Some(m.fit(this)) catch { case _: MatcherNotScalable => None }
      fits(m) = f
      f
    })
  }
}

/** Matcher category, per Table 3 of the paper. */
sealed trait MatcherKind
object MatcherKind {
  case object RuleBased extends MatcherKind
  case object NonNeural extends MatcherKind
  case object Neural extends MatcherKind
}

/** Thrown by matchers that refuse a dataset (mirrors "Dedupe did not scale
  * for FacultyMatch, NoFlyCompas, Shoes and Cameras", §5.1.4).
  */
final class MatcherNotScalable(msg: String) extends RuntimeException(msg)

/** A fitted matcher: assigns a confidence score in [0,1] to each pair.
  * The match/non-match decision (thresholding) is decoupled from the matcher
  * per Definition 1 / §3.1 so that threshold sweeps (Table 7) reuse scores.
  */
trait FittedMatcher {
  /** Returns ``pairs`` with an additional ``score`` double column in [0,1]. */
  def scores(pairs: DataFrame): DataFrame
}

/** An entity matcher that can be trained on a dataset's train split. Each
  * implementation is a value (a case class): equal configurations are equal,
  * so the table harnesses fit each (dataset, matcher) once.
  */
trait Matcher {
  def name: String
  def kind: MatcherKind
  def fit(ds: EMDataset): FittedMatcher
}
