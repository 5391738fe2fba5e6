package repro.bench

import repro.eval.Tables

/** Table 4: overview of the eight datasets at repo scale. */
class Table4Bench extends TableBench("Table4") {

  test("render Table 4") {
    val rows = Tables.allDatasets(spark).map(Tables.overview)
    render(Tables.render4(rows))
    // Class-imbalance ordering from the paper's Table 4 must hold.
    val byName = rows.map(r => r.dataset -> r).toMap
    assert(byName("FacultyMatch").posPct < 2.0)
    assert(byName("NoFlyCompas").posPct < 2.0)
    assert(byName("Cricket").posPct > 90.0)
    assert(byName("Shoes").posPct < byName("iTunes-Amazon").posPct)
  }
}
