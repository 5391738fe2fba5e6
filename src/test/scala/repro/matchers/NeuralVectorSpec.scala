package repro.matchers

import org.apache.spark.sql.Column
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions.{col, concat_ws, udf}

import repro.AssembledCheck
import repro.core.AttrSpec
import repro.matchers.neural._

class NeuralVectorSpec extends AssembledCheck {

  /** The features each neural matcher added one UDF column at a time, in its order. */
  private def perFeature(m: NeuralMatcherBase, as: Seq[AttrSpec]): Seq[(String, Column)] = {
    val (cos, align, jac) =
      (udf(TextEncoder.textCos _), udf(TextEncoder.align _), udf(TextEncoder.normJaccard _))
    def serialized(side: String): Column = concat_ws(" ", as.map(a => col(s"${side}_${a.name}")): _*)
    val (l, r) = (serialized("l"), serialized("r"))
    val global = Seq("nf_g_cos" -> cos(l, r), "nf_g_align" -> align(l, r), "nf_g_jac" -> jac(l, r))
    def perAttr(fn: String, u: UserDefinedFunction) =
      as.map(a => s"nf_${fn}_${a.name}" -> u(col(s"l_${a.name}"), col(s"r_${a.name}")))
    m match {
      case _: DittoSim => global
      case _: DeepMatcherSim => perAttr("cos", cos) ++ perAttr("align", align) ++ global
      case _: HierMatcherSim => perAttr("align", align) :+ global(1)
      case _: McanSim => perAttr("align", align) ++ perAttr("cos", cos) ++ global
    }
  }

  test("each neural matcher's vector equals its assembled per-feature columns on every row") {
    // GNEM scores through Ditto's fit, so its vector is Ditto's.
    val neural = Matchers.neural.collect { case m: NeuralMatcherBase => m }
    assert(neural.size == 4)
    for (m <- neural; (name, df, as) <- splits)
      assertAssembled(s"${m.name} on $name", df, m.features(as), perFeature(m, as))
  }
}
