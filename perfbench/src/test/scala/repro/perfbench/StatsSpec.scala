package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even samples") {
    assert(Stats.median(Seq(5.0, 1.0, 4.0)) == 4.0)
    assert(Stats.median(Seq(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)) == 5.5)
    assert(Stats.median(Seq(2.0)) == 2.0)
  }

  test("metric names are letters, digits, '_', '.' and '-', starting with a letter or digit") {
    for (ok <- Seq("wall_s", "kernels.align_ns", "matchers.fit_s.rule", "0-x", "a" * 64))
      assert(Stats.checkName(ok) == ok)
    for (bad <- Seq("", "_x", ".x", "a b", "a/b", "x%", "a" * 65, "wall_s\n"))
      assertThrows[IllegalArgumentException](Stats.checkName(bad))
  }
}
