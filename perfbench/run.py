#!/usr/bin/env python3
"""Benchmark of the fairness-audit pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload {social,sweep} --seed N \
        --seconds S --trace {0,1}

Builds the program and the benchmark from source with sbt (cached in
.bench_build/ until a source or build file changes), then runs a fresh JVM
(perfbench/src/main/scala/repro/perfbench/Main.scala) that sets up Spark
through the program's own session, runs the workload once, cold, and checks
every (dataset, matcher) cell against the rows recorded in
perfbench/reference/. A run is one cold pass per JVM whatever --seconds
says: a table's cost is paid in a fresh JVM, and one pass takes longer than
the benchmark's run length of 1 s. An untraced `sweep` run starts two JVMs
one after the other and reports the median of each metric (see COLD_JVMS).

The last line of stdout is the JSON result. Spans of a traced run go to
.bench_build/traces/, each run's printed rows to .bench_build/rows/ (copy
one into perfbench/reference/ to record a reference), logs to
.bench_build/logs/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import time
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build"
WORKLOADS = ("social", "sweep")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170  # for all the JVMs of one run together

# Fresh JVMs per untraced run. Cold passes of `sweep` vary more from JVM to
# JVM than those of `social` (measured on 4 shared vCPUs: 20-31 s, with
# 10 % to 30 % more CPU, JIT and GC time in the slow ones, mostly without
# hypervisor steal), so its runs take the median of two; a third, or a second
# for `social`, would not fit the benchmark's time budget.
COLD_JVMS = {"social": 1, "sweep": 2}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, log=None):
    print(f"perfbench: {msg}", file=sys.stderr)
    if log is not None and log.exists():
        print("".join(log.read_text(errors="replace").splitlines(True)[-40:]), file=sys.stderr)
    sys.exit(1)


def build_inputs():
    """Every file the build reads from the checkout, in a stable order."""
    files = [ROOT / "build.sbt", BENCH / "build.sbt"]
    for d in (ROOT / "project", BENCH / "project"):
        files += sorted(d.glob("*.sbt")) + sorted(d.glob("*.properties"))
    for d in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src" / "main"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def build():
    """Compiles the program and the benchmark; returns the runtime classpath."""
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"{ROOT} is not a checkout of the program (no build.sbt or src/main/scala)")
    digest = hashlib.sha256()
    for f in build_inputs():
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp, cp_file, log = OUT / "build.stamp", OUT / "classpath.txt", OUT / "logs" / "build.log"
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == digest.hexdigest():
        return cp_file.read_text().strip()
    log.parent.mkdir(parents=True, exist_ok=True)
    stamp.unlink(missing_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={OUT / 'sbt-global'}", f"writeClasspath {cp_file}"]
    with open(log, "w") as out:
        code = run_group(cmd, BENCH, out, subprocess.STDOUT, BUILD_TIMEOUT_S)[0]
    if code != 0 or not cp_file.is_file():
        fail(f"build failed ({code})", log)
    stamp.write_text(digest.hexdigest())
    return cp_file.read_text().strip()


def run_group(cmd, cwd, stdout, stderr, timeout):
    """Runs cmd in its own process group and returns (exit code, stdout);
    on timeout kills the whole group, waits for it, and returns "timeout"."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", None


def driver_memory():
    """SPARK_DRIVER_MEM, else half the machine's memory clamped to 2..8 GiB.
    The clamp is the benchmark's own choice: the repo's sbt test runs default
    to 48g, more heap than a machine shared with other work should grant."""
    if os.environ.get("SPARK_DRIVER_MEM"):
        return os.environ["SPARK_DRIVER_MEM"]
    try:
        kib = next(int(l.split()[1]) for l in open("/proc/meminfo") if l.startswith("MemTotal:"))
        return f"{min(8, max(2, kib // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    cp = build()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xmx{driver_memory()}", f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}", f"-Dspark.sql.warehouse.dir={OUT / 'spark-warehouse'}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--trace", a.trace, "--reference-dir", str(BENCH / "reference"),
           "--out-dir", str(OUT), "--git-sha", git_sha()]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for jvm in range(1 if a.trace == "1" else COLD_JVMS[a.workload]):
        log = OUT / "logs" / f"{a.workload}.seed{a.seed}.trace{a.trace}.jvm{jvm}.log"
        with open(log, "w") as err:
            code, stdout = run_group(cmd, ROOT, subprocess.PIPE, err, max(1.0, deadline - time.monotonic()))
        lines = (stdout or "").splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if code != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
            fail(f"run failed ({code})", log)
        for line in lines[:-1]:
            print(line)
        results.append(result)
    print(json.dumps(combine(results)))


def combine(results):
    """One result from those of several JVMs: every cell counted, each metric
    the median of its values."""
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                           "unit": m["unit"]}
                    for name, m in results[0]["metrics"].items()},
    }


if __name__ == "__main__":
    main()
