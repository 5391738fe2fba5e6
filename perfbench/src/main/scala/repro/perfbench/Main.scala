package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.FeatureGen
import repro.jobs.JobSession

/** The benchmark's JVM, started fresh for every cold sample: it sets up the
  * program's session, runs one workload through the public table harnesses
  * (with `--trace 1`, then warm and stage by stage under spans), checks
  * every cell, and prints one JSON result as its last line.
  *
  * Args: --workload NAME --seed N --trace 0|1
  *       --reference-dir DIR --out-dir DIR [--git-sha SHA]
  */
object Main {

  final case class Opts(workload: Workload, seed: Long, trace: Boolean,
                        referenceDir: Path, outDir: Path, gitSha: String)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(Workloads.byName(get("workload")), get("seed").toLong,
      get("trace") match { case "1" => true; case "0" => false; case t => throw new IllegalArgumentException(s"--trace $t") },
      Paths.get(get("reference-dir")), Paths.get(get("out-dir")), kv.getOrElse("git-sha", "unknown"))
  }

  /** Call site of the RDD that holds a generated dataset's source rows. */
  private val SourceCallSite = "parallelize at GenUtil.scala"

  private def cpuNs(): Long =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  private def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def jitMs(): Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** CPU seconds the hypervisor gave to other guests, summed over this
    * machine's CPUs: the `steal` column of /proc/stat (in 1/100 s), 0 where
    * there is no such file. Printed next to each pass, to tell contention
    * on a shared virtual machine from the program's own variation.
    */
  private def stealS(): Double =
    try Files.readAllLines(Paths.get("/proc/stat")).get(0).trim.split("\\s+")(8).toDouble / 100
    catch { case NonFatal(_) => 0.0 }

  private def seconds(ns: Long): Double = ns / 1e9

  /** Waits until the JIT has compiled nothing for a second, at most 10 s, so
    * compilations queued by the cold pass do not run inside a warm pass.
    */
  private def jitSettle(): Unit = {
    val jit = ManagementFactory.getCompilationMXBean
    val deadline = System.nanoTime + 10000000000L
    var last = jit.getTotalCompilationTime
    var quietSince = System.nanoTime
    while (System.nanoTime < deadline && System.nanoTime - quietSince < 1000000000L) {
      Thread.sleep(100)
      val now = jit.getTotalCompilationTime
      if (now != last) { last = now; quietSince = System.nanoTime }
    }
  }

  /** Sets up as a table's `spark-submit` does: from JVM start until the
    * program's session has returned and one trivial job has completed.
    * Returns the session and the seconds that took.
    */
  def setUp(): (SparkSession, Double) = {
    val spark = JobSession.session("perfbench")
    spark.range(1).count()
    (spark, (System.currentTimeMillis - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3)
  }

  // ------------------------------------------------------------------
  // Correctness
  // ------------------------------------------------------------------

  private val Refused = "(refused)"

  /** The cells as reference lines: `key<TAB>row`, one per printed row. */
  def lines(cells: Seq[Cell]): Seq[String] = cells.flatMap { c =>
    if (c.refused) Seq(s"${c.key}\t$Refused")
    else if (c.error.nonEmpty) Seq(s"${c.key}\t(error) ${c.error.get.replace('\n', ' ')}")
    else c.rows.map(r => s"${c.key}\t$r")
  }

  def readReference(file: Path): Option[Map[String, Seq[String]]] =
    if (!Files.exists(file)) None
    else Some(readReferenceLines(Files.readAllLines(file, UTF_8).asScala.toSeq))

  def readReferenceLines(ls: Seq[String]): Map[String, Seq[String]] =
    ls.filter(_.nonEmpty).map(_.split("\t", 2)).groupMap(_(0))(_(1))

  /** Failed cells with the reason: a throw, a refusal other than the
    * paper's, or printed rows that differ from the reference or from the
    * run's first pass.
    */
  def failures(cells: Seq[Cell], reference: Option[Map[String, Seq[String]]],
               firstPass: Option[Seq[Cell]]): Seq[String] = cells.flatMap { c =>
    val printed = if (c.refused) Seq(Refused) else c.rows
    val firstRows = firstPass.flatMap(_.find(_.key == c.key)).map(f => if (f.refused) Seq(Refused) else f.rows)
    if (c.error.nonEmpty) Some(s"${c.key}: threw ${c.error.get}")
    else if (c.refused != Workloads.expectRefusal(c.key)) Some(s"${c.key}: refused=${c.refused}, paper says ${!c.refused}")
    else if (reference.exists(_.get(c.key) != Some(printed))) Some(s"${c.key}: differs from reference: $printed")
    else if (firstRows.exists(_ != printed)) Some(s"${c.key}: differs from the first pass: $printed")
    else None
  }

  // ------------------------------------------------------------------
  // Runs
  // ------------------------------------------------------------------

  final case class Pass(cells: Seq[Cell], wallNs: Long, cpuNs: Long, gcMs: Long, jitMs: Long, stealS: Double)

  def timed(body: => Seq[Cell]): Pass = {
    val (w0, c0, g0, j0, s0) = (System.nanoTime, cpuNs(), gcMs(), jitMs(), stealS())
    val cells = body
    Pass(cells, System.nanoTime - w0, cpuNs() - c0, gcMs() - g0, jitMs() - j0, stealS() - s0)
  }

  final case class Outcome(passes: Seq[Pass], failed: Seq[String], metrics: Seq[(String, Double, String)])

  /** One cold pass through the table harnesses: the table a fresh JVM
    * renders, JIT and process-global caches (such as the `TextEncoder` token
    * cache) cold, as every `repro.jobs.Table*` run pays them. `wall_s` and
    * `cpu_s` are that pass's.
    */
  def untraced(spark: SparkSession, o: Opts, setupS: Double, reference: Option[Map[String, Seq[String]]]): Outcome = {
    val cold = timed(o.workload.run(spark, o.seed))
    Outcome(Seq(cold), failures(cold.cells, reference, None), Seq(
      ("setup_s", setupS, "s"),
      ("wall_s", seconds(cold.wallNs), "s"),
      ("cpu_s", seconds(cold.cpuNs), "s"),
    ))
  }

  /** The cold pass as in [[untraced]]; once the JIT is quiet, a warm pass
    * stage by stage under spans (the per-layer metrics) between two plain
    * warm passes through the table harnesses; then probes of feature
    * generation and the kernels. Every warm pass must print the cold pass's
    * cells. `trace.overhead_s` is the traced pass's time minus the mean of
    * the plain ones around it, which cancels the JIT's steady warming;
    * `trace.listener_s` is the part spent in the listener and appender.
    */
  def traced(spark: SparkSession, o: Opts, reference: Option[Map[String, Seq[String]]]): Outcome = {
    val sc = spark.sparkContext
    val cold = timed(o.workload.run(spark, o.seed))
    jitSettle()
    val before = timed(o.workload.run(spark, o.seed))
    val listener = new EngineListener(SourceCallSite)
    val tracer = new Tracer(Engine.tag(sc))
    val appender = new WarningAppender(() => tracer.active, listener.warn)
    sc.addSparkListener(listener)
    appender.register()
    val warm = try {
      val pass = timed(tracer("workload", o.workload.name)(o.workload.staged(spark, o.seed, tracer)))
      listener.settle(sc)
      pass
    } finally {
      appender.unregister()
      sc.removeSparkListener(listener)
      Engine.tag(sc)(0)
    }
    val after = timed(o.workload.run(spark, o.seed))
    val plainWallS = Stats.median(Seq(before, after).map(p => seconds(p.wallNs)))
    val spans = tracer.spans
    val counts = listener.snapshot
    writeSpans(o, spans, counts)

    val data = o.workload.probeData(spark, o.seed)
    val (featureS, featurePairs) = data.foldLeft((0.0, 0L)) {
      case ((s, n), ds) =>
        val t0 = System.nanoTime
        FeatureGen.addFeatures(ds.test, ds.attrs).write.format("noop").mode("overwrite").save()
        (s + seconds(System.nanoTime - t0), n + ds.test.count())
    }
    val pairs = data.map(d => d.train.count() + d.test.count()).sum
    val kernelNs = Kernels.time(Kernels.sample(data, 512, o.seed))

    val failed = failures(cold.cells, reference, None) ++
      Seq(before, warm, after).flatMap(p => failures(p.cells, reference, Some(cold.cells)))
    Outcome(Seq(cold, before, warm, after), failed, Layers(spans, counts, warm.cells, sc.defaultParallelism).metrics(seconds(warm.wallNs)) ++ Seq(
      ("trace.cold_wall_s", seconds(cold.wallNs), "s"),
      ("engine.cold_jit_s", cold.jitMs / 1e3, "s"),
      ("trace.warm_wall_s", plainWallS, "s"),
      ("trace.warm_cpu_s", Stats.median(Seq(before, after).map(p => seconds(p.cpuNs))), "s"),
      ("trace.overhead_s", seconds(warm.wallNs) - plainWallS, "s"),
      ("trace.listener_s", seconds(listener.overheadNs), "s"),
      ("data.pairs", pairs.toDouble, "count"),
      ("features.s", featureS, "s"),
      ("features.pairs_per_s", if (featureS > 0) featurePairs / featureS else 0.0, "1/s"),
      ("engine.gc_s", warm.gcMs / 1e3, "s"),
      ("engine.cache_peak_mb", listener.peakCachedBytes / 1e6, "MB"),
    ) ++ kernelNs.map { case (k, ns) => (s"kernels.${k}_ns", ns, "ns") })
  }

  private def writeSpans(o: Opts, spans: Seq[Span], counts: Map[Int, Counts]): Unit = {
    val dir = Files.createDirectories(o.outDir.resolve("traces"))
    val self = Span.selfNs(spans)
    val out = spans.sortBy(_.id).map { s =>
      val c = counts.getOrElse(s.id, new Counts)
      Json.obj(Seq(
        "id" -> Json.num(s.id), "parent" -> Json.num(s.parent), "layer" -> Json.str(s.layer),
        "name" -> Json.str(s.name), "start_ns" -> Json.num(s.startNs), "end_ns" -> Json.num(s.endNs),
        "self_ns" -> Json.num(self(s.id)), "jobs" -> Json.num(c.jobs), "stages" -> Json.num(c.stages),
        "tasks" -> Json.num(c.tasks), "task_busy_ns" -> Json.num(c.busyNs),
        "scan_stages" -> Json.num(c.scanStages), "shuffle_bytes" -> Json.num(c.shuffleBytes),
        "warnings" -> Json.obj(c.warnings.toSeq.sorted.map { case (k, v) => k -> Json.num(v) })))
    }
    Files.write(dir.resolve(s"${o.workload.name}.seed${o.seed}.jsonl"), out.mkString("", "\n", "\n").getBytes(UTF_8))
  }

  def provenance(spark: SparkSession, o: Opts): String = {
    val conf = spark.conf
    Json.obj(Seq(
      "workload" -> Json.str(o.workload.name), "seed" -> Json.num(o.seed), "trace" -> Json.num(if (o.trace) 1 else 0),
      "git_sha" -> Json.str(o.gitSha),
      "nproc" -> Json.num(Runtime.getRuntime.availableProcessors),
      "driver_max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / (1L << 20)),
      "spark_master" -> Json.str(spark.sparkContext.master),
      "spark_sql_shuffle_partitions" -> Json.str(conf.get("spark.sql.shuffle.partitions")),
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "spark" -> Json.str(spark.version), "scala" -> Json.str(scala.util.Properties.versionNumberString)))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val (spark, setupS) = setUp()
    val refFile = o.referenceDir.resolve(s"${o.workload.name}.seed${o.seed}.txt")
    val reference = Main.readReference(refFile)
    val out = if (o.trace) traced(spark, o, reference) else untraced(spark, o, setupS, reference)

    val rowsDir = Files.createDirectories(o.outDir.resolve("rows"))
    Files.write(rowsDir.resolve(refFile.getFileName), lines(out.passes.head.cells).mkString("", "\n", "\n").getBytes(UTF_8))
    out.failed.foreach(f => Console.err.println(s"[perfbench] FAILED $f"))
    println(s"provenance ${provenance(spark, o)}")
    def each(f: Pass => Double) = out.passes.map(p => f"${f(p)}%.3f").mkString(",")
    println(s"passes wall_s=${each(p => seconds(p.wallNs))} cpu_s=${each(p => seconds(p.cpuNs))} " +
      s"gc_s=${each(_.gcMs / 1e3)} jit_s=${each(_.jitMs / 1e3)} steal_s=${each(_.stealS)} setup_s=${f"$setupS%.3f"}")
    println(s"reference ${if (reference.isDefined) refFile else "none for this seed: rows checked for throws and refusals only"}")
    spark.stop()

    val attempted = out.passes.map(_.cells.size).sum
    println(Json.obj(Seq(
      "correct" -> (if (out.failed.isEmpty) "true" else "false"),
      "attempted" -> Json.num(attempted),
      "failed" -> Json.num(out.failed.size),
      "metrics" -> Json.obj(out.metrics.map { case (name, v, unit) =>
        Stats.checkName(name) -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
      }))))
  }
}

/** Just enough JSON for flat result objects. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"; case '\t' => "\\t"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
  def num(x: Long): String = x.toString
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric value $x")
    x.toString
  }
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
