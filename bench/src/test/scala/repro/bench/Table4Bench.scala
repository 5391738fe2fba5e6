package repro.bench

import repro.eval.Tables

/** Table 4: overview of the eight datasets at repo scale. */
class Table4Bench extends TableBench("Table4") {

  test("render Table 4") {
    val rows = Tables.allDatasets(spark).map(Tables.overview)
    val sb = new StringBuilder
    sb ++= f"%n== Table 4: Dataset overview (repo scale) ==%n"
    sb ++= f"${"Name"}%-15s ${"Train"}%8s ${"Test"}%8s ${"%Pos"}%7s ${"#Attr"}%6s  Sens. Attr%n"
    for (r <- rows)
      sb ++= f"${r.dataset}%-15s ${r.train}%8d ${r.test}%8d ${r.posPct}%6.2f%% ${r.nAttrs}%6d  ${r.sensAttr}%n"
    Rendered.show("Table4", sb.toString)
    // Class-imbalance ordering from the paper's Table 4 must hold.
    val byName = rows.map(r => r.dataset -> r).toMap
    assert(byName("FacultyMatch").posPct < 2.0)
    assert(byName("NoFlyCompas").posPct < 2.0)
    assert(byName("Cricket").posPct > 90.0)
    assert(byName("Shoes").posPct < byName("iTunes-Amazon").posPct)
  }
}
