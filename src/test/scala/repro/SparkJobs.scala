package repro

import java.util.Properties
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.TestBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession

/** Test helper: the Spark jobs and stages a block starts. A listener counts
  * the events that carry the block's own local property, so jobs of other
  * threads do not count; the bus is drained before the counts are read.
  */
object SparkJobs {

  final case class Count(jobs: Int, stages: Int)

  private val key = "repro.test.span"

  def count[T](spark: SparkSession)(body: => T): (T, Count) = {
    val sc = spark.sparkContext
    val id = java.util.UUID.randomUUID.toString
    val (jobs, stages) = (new AtomicInteger, new AtomicInteger)
    def ours(p: Properties): Boolean = p != null && p.getProperty(key) == id
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (ours(e.properties)) jobs.incrementAndGet()
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (ours(e.properties)) stages.incrementAndGet()
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(key, id)
    try {
      val result = body
      TestBus.drain(sc)
      (result, Count(jobs.get, stages.get))
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
  }
}
