package repro.matchers

import org.apache.spark.ml.classification.LogisticRegression
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core._

/** Dedupe (Gregg & Eder): regularized logistic regression whose pairwise
  * decisions feed agglomerative clustering of records (Table 3). Modeled as
  * an elastic-net LR over generated features, followed by a transitive
  * closure over confident pairs — same-cluster pairs are promoted to matches.
  *
  * Mirrors §5.1.4's scalability note: Dedupe refuses datasets that are
  * textual (a single long free-text attribute gives its field model nothing
  * to cluster on) or whose pair count exceeds ``maxPairs`` — the paper's
  * "did not scale for FacultyMatch, NoFlyCompas, Shoes and Cameras".
  */
final case class DedupeMatcher(maxPairs: Long = 20000) extends FeatureMatcher(MatcherKind.NonNeural) {
  val name = "Dedupe"

  override def fit(ds: EMDataset): FittedMatcher = {
    if (ds.attrs.size == 1 && ds.attrs.head.kind == AttrKind.LongText)
      throw new MatcherNotScalable(s"Dedupe does not handle textual dataset ${ds.name}")
    // Both splits in one job.
    val nPairs = Counts.by(ds.train.union(ds.test)).values.sum
    if (nPairs > maxPairs)
      throw new MatcherNotScalable(s"Dedupe does not scale to ${ds.name} ($nPairs pairs)")
    val pairwise = super.fit(ds)
    pairs => clustered(pairwise.scores(pairs))
  }

  protected[matchers] def classifier(train: DataFrame, nPos: Long, nNeg: Long): DataFrame => DataFrame =
    FeatureMatcher.probScorer(new LogisticRegression()
      .setLabelCol("label").setFeaturesCol("features")
      .setRegParam(0.01).setElasticNetParam(0.5).setMaxIter(100)
      .fit(train))

  /** The pairwise scores of a whole frame, refined by the clustering. */
  private def clustered(scored: DataFrame): DataFrame = {
    // Read twice (edges below, then the caller). Not cache(): that pins a
    // CacheManager entry for the whole session; the checkpoint's blocks are
    // freed once the frame is unreachable.
    val checkpointed = scored.localCheckpoint()

    // Agglomerative step: promote every pair whose two records land in the
    // same cluster of the confident pairs.
    val edges = checkpointed.filter(col("score") >= 0.5)
      .select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1)))
    val root = DedupeMatcher.clusters(edges.toSeq)
    val sameCluster = udf { (l: Long, r: Long) =>
      val c = root.get(('L', l)); c.isDefined && c == root.get(('R', r))
    }
    checkpointed
      .withColumn("score",
        when(sameCluster(col("id1"), col("id2")), greatest(col("score"), lit(0.85)))
        .otherwise(col("score")))
  }
}

object DedupeMatcher {

  /** A record: its side ('L' or 'R') and id. Left and right ids are distinct
    * nodes (a left record never IS a right record).
    */
  type Node = (Char, Long)

  /** The cluster root of every record touched by the `(left id, right id)`
    * edges: two records share a cluster iff their roots are equal. Union-find
    * with path compression, resolved once into an immutable map so scoring
    * does one lookup per side.
    */
  def clusters(edges: Seq[(Long, Long)]): Map[Node, Node] = {
    val parent = scala.collection.mutable.HashMap.empty[Node, Node]
    def find(x: Node): Node = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent(r)
      var y = x
      while (y != r) { val next = parent(y); parent(y) = r; y = next }
      r
    }
    edges.foreach { case (l, r) =>
      val (a, b) = (find(('L', l)), find(('R', r)))
      if (a != b) parent(a) = b
    }
    edges.flatMap { case (l, r) => Seq[Node](('L', l), ('R', r)) }.distinct.map(n => n -> find(n)).toMap
  }
}
