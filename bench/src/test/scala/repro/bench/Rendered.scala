package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.scalatest.{Args, Status}

import repro.{SparkJobs, SparkSpec}

/** Where a bench suite's output goes: its rendered table to stdout and to
  * `target/bench-tables/<name>.txt` under the bench project, so two builds'
  * tables compare with `cmp` rather than by grepping logs; its Spark job and
  * stage counts to `<name>.counts` next to it.
  */
object Rendered {
  def show(name: String, text: String): Unit = {
    println(text)
    write(s"$name.txt", text)
  }

  def counts(name: String, n: SparkJobs.Count): Unit =
    write(s"$name.counts", s"jobs ${n.jobs}\nstages ${n.stages}\n")

  private def write(file: String, text: String): Unit = {
    val dir = Files.createDirectories(Paths.get("target", "bench-tables"))
    Files.write(dir.resolve(file), text.getBytes(StandardCharsets.UTF_8))
  }
}

/** A table's bench suite: the Spark jobs and stages its tests start go to
  * `<table>.counts` when the suite ends. Datasets and cubes are shared
  * across the suites of one JVM, so a suite's counts exclude what an earlier
  * suite already built.
  */
abstract class TableBench(table: String) extends SparkSpec {
  private var total = SparkJobs.Count(0, 0)

  override protected def runTest(testName: String, args: Args): Status = {
    val (status, n) = SparkJobs.count(spark)(super.runTest(testName, args))
    total = SparkJobs.Count(total.jobs + n.jobs, total.stages + n.stages)
    status
  }

  override def afterAll(): Unit = {
    Rendered.counts(table, total)
    super.afterAll()
  }
}
