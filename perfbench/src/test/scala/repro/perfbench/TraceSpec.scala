package repro.perfbench

import org.apache.logging.log4j.LogManager
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long) = Span(id, parent, "l", s"s$id", start, end)

  test("self time subtracts the children's interval union") {
    val spans = Seq(span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50), span(4, 1, 60, 70),
      span(5, 2, 12, 14))
    val self = Span.selfNs(spans)
    assert(self(1) == 100 - 40 - 10) // children cover [10,50) and [60,70)
    assert(self(2) == 20 - 2)
    assert(self(3) == 30 && self(4) == 10 && self(5) == 2)
  }

  test("tracer nests spans and reports the active one") {
    var now = 0L
    val switches = collection.mutable.ArrayBuffer.empty[Int]
    val t = new Tracer(switches += _, () => { now += 1; now })
    val inner = t("a", "outer")(t("b", "inner")(t.active))
    assert(inner == 2 && t.active == 0)
    assert(switches == Seq(1, 2, 1, 0))
    assert(t.spans.map(s => (s.id, s.parent, s.layer)) == Seq((2, 1, "b"), (1, 0, "a")))
    assertThrows[IllegalArgumentException](t("bad layer", "x")(()))
  }

  test("listener and appender attribute Spark work and warnings to the active span") {
    val spark = SparkSession.builder.master("local[2]").appName("trace-spec")
      .config("spark.ui.enabled", "false").config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.shuffle.partitions", "3").getOrCreate()
    val sc = spark.sparkContext
    try {
      val listener = new EngineListener("parallelize at TraceSpec.scala")
      val tracer = new Tracer(Engine.tag(sc))
      val appender = new WarningAppender(() => tracer.active, listener.warn)
      sc.addSparkListener(listener)
      appender.register()
      val source = sc.parallelize(1 to 100, 2)
      tracer("data", "count")(source.count())
      tracer("audit", "shuffle") {
        import spark.implicits._
        source.toDF("x").groupBy($"x" % 3).count().collect()
      }
      val cached = source.map(_ + 1).cache()
      tracer("matchers", "cache") { cached.count(); cached.count() }
      tracer("eval", "warn")(LogManager.getLogger("trace-spec").warn("task of very large size"))
      spark.range(4).count()
      listener.settle(sc)
      appender.unregister()
      Engine.tag(sc)(0)

      val c = listener.snapshot
      assert((c(1).jobs, c(1).stages, c(1).tasks, c(1).scanStages) == ((1, 1, 2, 1)))
      assert((c(2).jobs, c(2).stages, c(2).tasks, c(2).scanStages) == ((1, 2, 5, 1)))
      assert(c(2).shuffleBytes > 0 && c(1).shuffleBytes == 0)
      // The second count reads the cache, not the source rows.
      assert((c(3).jobs, c(3).scanStages) == ((2, 1)))
      assert(c(4).warnings("large_task") == 1 && c(4).jobs == 0)
      assert(c(0).jobs == 1 && c(0).scanStages == 0)
      assert(c(1).busyNs > 0 && listener.peakCachedBytes > 0 && listener.overheadNs > 0)
    } finally spark.stop()
  }

  test("warnings are classified by message") {
    assert(Engine.classify("Stage 3 contains a task of very large size (1195 KiB)") == "large_task")
    assert(Engine.classify("Failure again! Giving up and returning. Maybe the objective is just poorly behaved?") == "solver")
    assert(Engine.classify("Step size NaNHistory") == "solver")
    assert(Engine.classify("something else") == "other")
  }
}
