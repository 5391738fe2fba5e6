package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The 11 measures of Table 2 and the disparity operators of §3.6. */
class FairnessSpec extends AnyFunSuite {
  import Fairness._

  private val c = Confusion(tp = 40, fp = 10, tn = 35, fn = 15) // total 100

  test("AP = (TP+TN)/total") { assert(AP.value(c).get == 0.75) }
  test("SP = predicted-match rate") { assert(SP.value(c).get == 0.50) }
  test("TPR = TP/(TP+FN)") { assert(TPRP.value(c).get == 40.0 / 55) }
  test("FPR = FP/(FP+TN)") { assert(FPRP.value(c).get == 10.0 / 45) }
  test("FNR = FN/(TP+FN)") { assert(FNRP.value(c).get == 15.0 / 55) }
  test("TNR = TN/(FP+TN)") { assert(TNRP.value(c).get == 35.0 / 45) }
  test("PPV = TP/(TP+FP)") { assert(PPVP.value(c).get == 0.8) }
  test("NPV = TN/(TN+FN)") { assert(NPVP.value(c).get == 0.7) }
  test("FDR = FP/(TP+FP)") { assert(FDRP.value(c).get == 0.2) }
  test("FOR = FN/(TN+FN)") { assert(FORP.value(c).get == 0.3) }

  test("TPR + FNR = 1") { assert(math.abs(TPRP.value(c).get + FNRP.value(c).get - 1) < 1e-12) }
  test("FPR + TNR = 1") { assert(math.abs(FPRP.value(c).get + TNRP.value(c).get - 1) < 1e-12) }
  test("PPV + FDR = 1") { assert(math.abs(PPVP.value(c).get + FDRP.value(c).get - 1) < 1e-12) }
  test("NPV + FOR = 1") { assert(math.abs(NPVP.value(c).get + FORP.value(c).get - 1) < 1e-12) }

  test("TP-based measures inapplicable with no true matches (§3.5)") {
    val noMatches = Confusion(tp = 0, fp = 5, tn = 95, fn = 0)
    assert(TPRP.value(noMatches).isEmpty && FNRP.value(noMatches).isEmpty)
    assert(PPVP.value(noMatches).isDefined) // has predicted positives
  }
  test("PPV/FDR inapplicable with no predicted matches") {
    val none = Confusion(tp = 0, fp = 0, tn = 90, fn = 10)
    assert(PPVP.value(none).isEmpty && FDRP.value(none).isEmpty)
  }
  test("class imbalance: all-non-match matcher has high accuracy (§3.5)") {
    val lazyMatcher = Confusion(tp = 0, fp = 0, tn = 990, fn = 10)
    assert(AP.value(lazyMatcher).get == 0.99)
    assert(TPRP.value(lazyMatcher).get == 0.0) // ...but TPRP reveals the failure
  }

  test("measure directions") {
    assert(TPRP.direction == HigherBetter && PPVP.direction == HigherBetter)
    assert(FDRP.direction == LowerBetter && FNRP.direction == LowerBetter && FPRP.direction == LowerBetter)
  }
  test("there are 10 base measures (EO derived from TPRP∪FPRP)") {
    assert(all.size == 10)
  }

  // ---- disparity vs overall (Eq 1 / Eq 3) ----
  test("Eq 1: subtraction disparity for higher-better") {
    assert(math.abs(subDisparity(overall = 0.9, group = 0.7, HigherBetter) - 0.2) < 1e-12)
  }
  test("Eq 1 clamps when the group does better than overall") {
    assert(subDisparity(overall = 0.7, group = 0.9, HigherBetter) == 0.0)
  }
  test("Eq 4: subtraction disparity for lower-better (FNR)") {
    assert(math.abs(subDisparity(overall = 0.1, group = 0.3, LowerBetter) - 0.2) < 1e-12)
  }
  test("Eq 4 clamps when the group's rate is lower") {
    assert(subDisparity(overall = 0.3, group = 0.1, LowerBetter) == 0.0)
  }
  test("Eq 3: division disparity for higher-better") {
    assert(math.abs(divDisparity(overall = 0.8, group = 0.6, HigherBetter) - 0.25) < 1e-12)
  }
  test("Eq 3 swapped for lower-better (FDR)") {
    assert(math.abs(divDisparity(overall = 0.1, group = 0.2, LowerBetter) - 0.5) < 1e-12)
  }
  test("division disparity guards zero denominators") {
    assert(divDisparity(0.0, 0.5, HigherBetter) == 0.0)
    assert(divDisparity(0.5, 0.0, LowerBetter) == 0.0)
  }

  // ---- disparity vs reference group (the Tables 5/6 convention) ----
  test("Table 6 Ditto TPR row: cn 0.59 vs de 0.85 -> sub 0.26, div 0.44") {
    assert(math.abs(subVsRef(0.59, 0.85, HigherBetter) - 0.26) < 1e-9)
    assert(math.abs(divVsRef(0.59, 0.85, HigherBetter) - 0.4406) < 1e-3)
  }
  test("Table 5 Ditto FDR row: Afr 0.31 vs Cauc 0.22 -> sub 0.09, div 0.41") {
    assert(math.abs(subVsRef(0.31, 0.22, LowerBetter) - 0.09) < 1e-9)
    assert(math.abs(divVsRef(0.31, 0.22, LowerBetter) - 0.409) < 1e-3)
  }
  test("Table 5 MCAN FDR row: 0.19 vs 0.05 -> div 2.8") {
    assert(math.abs(divVsRef(0.19, 0.05, LowerBetter) - 2.8) < 1e-9)
  }
  test("divVsRef is infinite when the lower probability is 0 and the other is not, in either direction") {
    // TPR: the audited group finds none of its matches, the reference some.
    assert(divVsRef(0.0, 0.86, HigherBetter) == Double.PositiveInfinity)
    // FDR: the reference group has no false discoveries, the audited group some.
    assert(divVsRef(0.06, 0.0, LowerBetter) == Double.PositiveInfinity)
  }
  test("divVsRef is 0 when both probabilities are 0") {
    assert(divVsRef(0.0, 0.0, HigherBetter) == 0.0)
    assert(divVsRef(0.0, 0.0, LowerBetter) == 0.0)
  }
  test("Table 5 DeepMatcher TPR row: signed negative disparity when group is ahead") {
    assert(math.abs(subVsRef(0.89, 0.86, HigherBetter) - (-0.03)) < 1e-9)
    assert(divVsRef(0.89, 0.86, HigherBetter) < 0)
  }
}
