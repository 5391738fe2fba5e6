package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.scalatest.{Args, Status}

import repro.{SparkJobs, SparkSpec}

/** A table's bench suite. Its render test prints the table's text, writes it
  * to `target/bench-tables/<table>.txt` under the bench project, and fails
  * unless it equals `reference/<table>.txt` byte for byte. A change that
  * moves a printed number updates that reference in the same diff.
  */
abstract class TableBench(table: String) extends SparkSpec {

  protected def render(text: String): Unit = {
    println(text)
    TableBench.write(s"$table.txt", text)
    val reference = new String(Files.readAllBytes(Paths.get("reference", s"$table.txt")), StandardCharsets.UTF_8)
    assert(text == reference)
  }

  override protected def runTest(testName: String, args: Args): Status = {
    val (status, n) = SparkJobs.count(spark)(super.runTest(testName, args))
    TableBench.add(n)
    status
  }

  override def afterAll(): Unit = {
    TableBench.writeCounts()
    super.afterAll()
  }
}

/** The Spark jobs and stages that the tests of every suite in this JVM have
  * started so far. Each suite rewrites `target/bench-tables/bench.counts`
  * when it ends, so after the last one it holds the whole run's counts,
  * whatever order the suites ran in.
  */
object TableBench {
  private var total = SparkJobs.Count(0, 0)

  private def add(n: SparkJobs.Count): Unit = synchronized {
    total = SparkJobs.Count(total.jobs + n.jobs, total.stages + n.stages)
  }

  private def writeCounts(): Unit = synchronized {
    write("bench.counts", s"jobs ${total.jobs}\nstages ${total.stages}\n")
  }

  private def write(file: String, text: String): Unit = {
    val dir = Files.createDirectories(Paths.get("target", "bench-tables"))
    Files.write(dir.resolve(file), text.getBytes(StandardCharsets.UTF_8))
  }
}
