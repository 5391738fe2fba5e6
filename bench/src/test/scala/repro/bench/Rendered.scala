package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

/** Where a bench suite's rendered table goes: stdout, and
  * `target/bench-tables/<name>.txt` under the bench project, so two builds'
  * tables compare with `cmp` rather than by grepping logs.
  */
object Rendered {
  def show(name: String, text: String): Unit = {
    println(text)
    val dir = Files.createDirectories(Paths.get("target", "bench-tables"))
    Files.write(dir.resolve(s"$name.txt"), text.getBytes(StandardCharsets.UTF_8))
  }
}
