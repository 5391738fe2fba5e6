package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class MainSpec extends AnyFunSuite {

  private val ok      = Cell("T6/FacultyMatch/RFMatcher", Seq("row"), refused = false, None)
  private val refused = Cell("T6/FacultyMatch/Dedupe", Nil, refused = true, None)

  test("cells pass when they match the reference and the paper's refusals") {
    val ref = Main.readReferenceLines(Main.lines(Seq(ok, refused)))
    assert(Main.failures(Seq(ok, refused), Some(ref), None).isEmpty)
    assert(Main.failures(Seq(ok, refused), None, Some(Seq(ok, refused))).isEmpty)
  }

  test("a throw, an unexpected refusal or answer, and a changed row each fail their cell") {
    val threw = ok.copy(rows = Nil, error = Some("boom"))
    assert(Main.failures(Seq(threw), None, None).size == 1)
    assert(Main.failures(Seq(ok.copy(rows = Nil, refused = true)), None, None).size == 1)
    assert(Main.failures(Seq(refused.copy(rows = Seq("row"), refused = false)), None, None).size == 1)
    val ref = Main.readReferenceLines(Main.lines(Seq(ok)))
    assert(Main.failures(Seq(ok.copy(rows = Seq("other"))), Some(ref), None).size == 1)
    assert(Main.failures(Seq(refused), Some(ref), None).size == 1) // missing from the reference
    assert(Main.failures(Seq(ok.copy(rows = Seq("other"))), None, Some(Seq(ok))).size == 1)
  }
}
