package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerStageCompleted}
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}

/** One timed call into a layer. `op` is the operation id (-1 for set-up),
  * `parent` the id of the enclosing span (-1 at the root), `tag` the
  * sampler, hypothesis or dataset the call was made for.
  */
final case class Span(id: Int, parent: Int, op: Int, name: String, tag: String,
    startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder. Spans nest through a stack, so a span opened
  * inside another gets it as parent. Nothing is written until `write`.
  */
final class Tracer {
  val spans = new ArrayBuffer[Span]()
  private var stack: List[Int] = Nil
  private var nextId = 0
  var op: Int = -1

  def span[A](name: String, tag: String = "")(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      spans += Span(id, parent, op, name, tag, t0, t1)
    }
  }

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      w.println(compact(render(("id" -> s.id) ~ ("parent" -> s.parent) ~ ("op" -> s.op) ~ ("name" -> s.name) ~
        ("tag" -> s.tag) ~ ("start_ns" -> s.startNs) ~ ("end_ns" -> s.endNs))))
    } finally w.close()
  }
}

/** Counts Spark jobs, tasks and shuffle bytes, for the GraphX layer. */
final class JobCounter extends SparkListener {
  @volatile var jobsEnded = 0L
  @volatile var tasks = 0L
  @volatile var shuffleBytes = 0L

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobsEnded += 1 }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    tasks += e.stageInfo.numTasks
    shuffleBytes += e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten
  }

  /** Jobs, tasks and shuffle bytes of the jobs run under job group `group`.
    * Listener events arrive asynchronously, so this waits until the
    * listener has seen every job of the group end.
    */
  def measure[A](sc: SparkContext, group: String)(f: => A): (A, Long, Long, Long) = {
    val (j0, t0, b0) = synchronized((jobsEnded, tasks, shuffleBytes))
    sc.setJobGroup(group, group)
    val r = try f finally sc.clearJobGroup()
    val jobs = sc.statusTracker.getJobIdsForGroup(group).length.toLong
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (synchronized(jobsEnded - j0) < jobs && System.nanoTime() < deadline) Thread.sleep(5)
    synchronized((r, jobsEnded - j0, tasks - t0, shuffleBytes - b0))
  }
}
