package repro.perfbench

import java.util.Properties
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property
import org.apache.logging.log4j.{Level, LogManager}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One traced call into a layer of the program. `parent` is 0 at the root. */
final case class Span(id: Int, parent: Int, layer: String, name: String, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

object Span {
  /** Self time of each span: its duration minus the part of it that its
    * children's intervals cover (overlapping children are counted once).
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val covered = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
        .foldLeft((0L, Long.MinValue)) { case ((sum, reach), (a, b)) =>
          if (b <= reach) (sum, reach)
          else (sum + b - math.max(a, reach), b)
        }._1
      s.id -> (s.durationNs - covered)
    }.toMap
  }
}

/** Records spans around the benchmark's calls into the program. Spans nest
  * on the calling thread; `onSwitch` is told the id of the span that becomes
  * active (0 when none), so Spark jobs submitted inside a span can carry it.
  */
final class Tracer(onSwitch: Int => Unit = _ => (), clock: () => Long = () => System.nanoTime) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var nextId = 1
  @volatile private var current = 0

  /** Id of the innermost open span, 0 when none is open. */
  def active: Int = current

  def apply[A](layer: String, name: String)(body: => A): A = {
    Stats.checkName(layer)
    val id = nextId
    nextId += 1
    val parent = current
    val start = clock()
    current = id
    onSwitch(id)
    try body
    finally {
      done += Span(id, parent, layer, name, start, clock())
      current = parent
      onSwitch(parent)
    }
  }

  /** Closed spans, children before their parents. */
  def spans: Seq[Span] = done.toSeq
}

/** Spark work and warnings attributed to one span. */
final class Counts {
  var jobs, stages, tasks, busyNs, deserNs, shuffleBytes, scanStages = 0L
  val warnings: mutable.Map[String, Long] = mutable.Map.empty.withDefaultValue(0L)

  def +=(o: Counts): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks; busyNs += o.busyNs
    deserNs += o.deserNs; shuffleBytes += o.shuffleBytes; scanStages += o.scanStages
    for ((k, v) <- o.warnings) warnings(k) += v
  }
}

object Engine {
  /** Job property through which a job names the span that submitted it. */
  val SpanKey = "perfbench.span"

  /** Marks the calling thread's next Spark jobs as belonging to `span`. */
  def tag(sc: SparkContext)(span: Int): Unit = sc.setLocalProperty(SpanKey, span.toString)

  /** Warning classes the reports count separately. */
  def classify(message: String): String =
    if (message.contains("very large size")) "large_task"
    else if (message.contains("Failure again") || message.contains("NaNHistory")) "solver"
    else "other"
}

/** Attributes Spark jobs, stages and tasks to spans, reading only job
  * properties, `StageInfo` and task metrics. A stage belongs to the span of
  * the first job that lists it; a task belongs to its stage's span.
  *
  * A stage is a scan of generated source rows when its lineage reaches an RDD
  * whose call site starts with `sourceCallSite` without passing through a
  * persisted RDD that an earlier stage has already computed.
  */
final class EngineListener(sourceCallSite: String) extends SparkListener {
  private val bySpan = mutable.Map.empty[Int, Counts]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val computed = mutable.Set.empty[Int]
  private val blockBytes = mutable.Map.empty[String, Long]
  private var cachedBytes = 0L
  private var peakCached = 0L
  private val jobsEnded = new AtomicLong
  private val jobsStarted = new AtomicLong
  private val hookNs = new AtomicLong

  /** Runs one callback body, adding its time to the tracing overhead. */
  private def hook(body: => Unit): Unit = {
    val t0 = System.nanoTime
    try synchronized(body) finally hookNs.addAndGet(System.nanoTime - t0)
  }

  private def counts(span: Int): Counts = bySpan.getOrElseUpdate(span, new Counts)

  private def spanOf(props: Properties): Int =
    Option(props).flatMap(p => Option(p.getProperty(Engine.SpanKey))).map(_.toInt).getOrElse(0)

  override def onJobStart(e: SparkListenerJobStart): Unit = hook {
    val span = spanOf(e.properties)
    counts(span).jobs += 1
    e.stageIds.foreach(id => stageSpan.getOrElseUpdate(id, span))
    jobsStarted.incrementAndGet()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = hook {
    val info = e.stageInfo
    val c = counts(stageSpan.getOrElse(info.stageId, 0))
    c.stages += 1
    if (readsSource(info)) c.scanStages += 1
    info.rddInfos.filter(_.storageLevel.isValid).foreach(r => computed += r.id)
  }

  private def readsSource(info: StageInfo): Boolean = {
    val byId = info.rddInfos.map(r => r.id -> r).toMap
    val seen = mutable.Set.empty[Int]
    def walk(id: Int): Boolean = byId.get(id) match {
      case None => false
      case Some(r) if !seen.add(id) => false
      case Some(r) if r.storageLevel.isValid && computed.contains(id) => false
      case Some(r) => r.callSite.startsWith(sourceCallSite) || r.parentIds.exists(walk)
    }
    info.rddInfos.headOption.exists(r => walk(r.id))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = hook {
    val c = counts(stageSpan.getOrElse(e.stageId, 0))
    c.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      c.busyNs += (m.executorRunTime + m.executorDeserializeTime) * 1000000L
      c.deserNs += m.executorDeserializeTime * 1000000L
      c.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = hook {
    val info = e.blockUpdatedInfo
    if (info.blockId.isRDD) {
      val key = info.blockId.name
      val bytes = if (info.storageLevel.isValid) info.memSize + info.diskSize else 0L
      cachedBytes += bytes - blockBytes.getOrElse(key, 0L)
      if (bytes == 0) blockBytes -= key else blockBytes(key) = bytes
      peakCached = math.max(peakCached, cachedBytes)
    }
  }

  /** Adds a warning logged with `message` to `span`. */
  def warn(span: Int, message: String): Unit = hook { counts(span).warnings(Engine.classify(message)) += 1 }

  /** Time spent in this listener's callbacks and in [[warn]]. */
  def overheadNs: Long = hookNs.get

  /** Work attributed to each span id (0 = outside every span). */
  def snapshot: Map[Int, Counts] = synchronized {
    bySpan.map { case (k, v) => val c = new Counts; c += v; k -> c }.toMap
  }

  def peakCachedBytes: Long = synchronized(peakCached)

  /** Waits until every job that started has been reported as ended and the
    * listener bus has nothing queued for this listener, so counts are final.
    */
  def settle(sc: SparkContext): Unit = {
    val deadline = System.nanoTime + 30L * 1000000000L
    while (jobsEnded.get < jobsStarted.get && System.nanoTime < deadline) Thread.sleep(5)
    org.apache.spark.PerfbenchBus.drain(sc)
  }
}

/** Log4j appender that hands each WARN-or-worse message to `sink` with the
  * span active when it was logged.
  */
final class WarningAppender(active: () => Int, sink: (Int, String) => Unit)
    extends AbstractAppender("perfbench-warnings", null, null, true, Property.EMPTY_ARRAY) {

  override def append(event: LogEvent): Unit =
    if (event.getLevel.isMoreSpecificThan(Level.WARN))
      sink(active(), event.getMessage.getFormattedMessage)

  /** Attaches to the root logger of the current logging configuration. */
  def register(): Unit = {
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    start()
    ctx.getConfiguration.getRootLogger.addAppender(this, Level.WARN, null)
    ctx.updateLoggers()
  }

  def unregister(): Unit = {
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    ctx.getConfiguration.getRootLogger.removeAppender(getName)
    ctx.updateLoggers()
    stop()
  }
}

/** Per-layer metrics of one traced pass. A layer's Spark work is what its
  * spans submitted; work outside every layer span (root glue) counts only
  * toward the engine totals.
  */
final case class Layers(spans: Seq[Span], counts: Map[Int, Counts], cells: Seq[Cell], cores: Int) {
  private val self = Span.selfNs(spans)
  private def of(layer: String, prefix: String = ""): Seq[Span] =
    spans.filter(s => s.layer == layer && s.name.startsWith(prefix))
  private def secs(ss: Seq[Span]): Double = ss.map(_.durationNs).sum / 1e9
  private def total(ss: Seq[Span], f: Counts => Long): Long = ss.flatMap(s => counts.get(s.id)).map(f).sum
  private val all = new Counts
  counts.values.foreach(all += _)

  def metrics(wallS: Double): Seq[(String, Double, String)] = {
    val fits = of("matchers", "fit.")
    val fitS = secs(fits)
    def util(busyNs: Long, wall: Double) = if (wall > 0) busyNs / 1e9 / (wall * cores) else 0.0
    Seq(
      ("trace.wall_s", wallS, "s"),
      ("trace.unattributed_s", of("workload").map(s => self(s.id)).sum / 1e9, "s"),
      ("data.gen_s", secs(of("data", "gen.")), "s"),
      ("data.scan_stages", all.scanStages.toDouble, "count"),
      ("data.scans_per_dataset", all.scanStages.toDouble / math.max(1, of("data", "gen.").size), "ratio"),
      ("data.large_task_warnings", all.warnings("large_task").toDouble, "count"),
      ("matchers.fit_s.rule", secs(of("matchers", "fit.rule.")), "s"),
      ("matchers.fit_s.nonneural", secs(of("matchers", "fit.nonneural.")), "s"),
      ("matchers.fit_s.neural", secs(of("matchers", "fit.neural.")), "s"),
      ("matchers.fit_jobs", total(fits, _.jobs).toDouble, "count"),
      ("matchers.fit_core_util", util(total(fits, _.busyNs), fitS), "ratio"),
      ("matchers.score_s", secs(of("matchers", "score.")), "s"),
      ("matchers.solver_warnings", all.warnings("solver").toDouble, "count"),
      ("matchers.refusals", cells.count(_.refused).toDouble, "count"),
      ("audit.s", secs(of("audit")), "s"),
      ("audit.jobs", total(of("audit"), _.jobs).toDouble, "count"),
      ("audit.tasks", total(of("audit"), _.tasks).toDouble, "count"),
      ("audit.shuffle_mb", total(of("audit"), _.shuffleBytes) / 1e6, "MB"),
      ("eval.render_s", secs(of("eval")), "s"),
      ("engine.jobs", all.jobs.toDouble, "count"),
      ("engine.stages", all.stages.toDouble, "count"),
      ("engine.tasks", all.tasks.toDouble, "count"),
      ("engine.task_busy_s", all.busyNs / 1e9, "s"),
      ("engine.task_deser_s", all.deserNs / 1e9, "s"),
      ("engine.core_util", util(all.busyNs, wallS), "ratio"),
    ) ++ Seq("data", "matchers", "audit", "eval").map { l =>
      (s"$l.self_s", of(l).map(s => self(s.id)).sum / 1e9, "s")
    }
  }
}
