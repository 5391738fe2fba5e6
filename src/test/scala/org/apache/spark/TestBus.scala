package org.apache.spark

/** Waits for Spark's listener bus to deliver every queued event. The bus is
  * private to Spark's package, hence this file's package.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
