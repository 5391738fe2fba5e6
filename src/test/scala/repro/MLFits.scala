package repro

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.{LoggerConfig, Property}

/** Test helper: the MLlib estimators a block trains, by class name, in order.
  * Every MLlib `fit` logs its stage class once at INFO through
  * `Instrumentation`'s logger; while the block runs, that logger gets its own
  * INFO config that collects those lines and passes nothing to the root's
  * appenders.
  */
object MLFits {

  private val logger = "org.apache.spark.ml.util.Instrumentation"
  private val Stage = """.*Stage class: (\w+).*""".r

  def trained[T](body: => T): (T, Seq[String]) = synchronized {
    val classes = new ConcurrentLinkedQueue[String]
    val appender = new AbstractAppender("MLFits", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit = e.getMessage.getFormattedMessage match {
        case Stage(c) => classes.add(c)
        case _        =>
      }
    }
    appender.start()
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val config = ctx.getConfiguration
    val own = new LoggerConfig(logger, Level.INFO, false)
    own.addAppender(appender, Level.INFO, null)
    config.addLogger(logger, own)
    ctx.updateLoggers()
    try {
      val result = body
      (result, classes.asScala.toSeq)
    } finally {
      config.removeLogger(logger)
      ctx.updateLoggers()
      appender.stop()
    }
  }
}
