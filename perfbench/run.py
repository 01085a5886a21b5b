#!/usr/bin/env python3
"""Run one workload of the Unbiased Space Saving performance benchmark.

    python3 perfbench/run.py --workload stream-ingest --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the repository's main
sources together with the benchmark program in perfbench/src with sbt
(offline); later runs reuse the build while no source file changed. The
program runs in one JVM with a fixed heap and Spark in local mode; it prints
human-readable lines and, as the last line of standard output, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. Per-run
details, and the spans of a traced run, are written to perfbench/out/.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(BENCH, "target")
CLASSPATH_FILE = os.path.join(TARGET, "bench-classpath.txt")
STAMP_FILE = os.path.join(TARGET, "bench-stamp.txt")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("stream-ingest", "spark-lineitem", "spark-groupby")
DRIVER_HEAP = "3g"
MAX_CORES = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Module opens Spark needs on JDK 17 (what spark-submit passes by default).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def source_files():
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in (os.path.join(BENCH, "src"), PROGRAM_SRC):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt unless the last build saw the same sources."""
    digest = source_digest()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true", "benchClasspath"]
    print("building: " + " ".join(cmd), file=sys.stderr, flush=True)
    r = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0 or not os.path.exists(CLASSPATH_FILE):
        sys.exit("build failed")
    with open(STAMP_FILE, "w") as fh:
        fh.write(digest + "\n")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def java_command(args):
    with open(CLASSPATH_FILE) as fh:
        classpath = fh.read().strip()
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else "java"
    props = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.local.dir": os.path.join(OUT, "spark-local"),
        "spark.sql.warehouse.dir": os.path.join(OUT, "warehouse"),
        "java.io.tmpdir": os.path.join(OUT, "tmp"),
        "file.encoding": "UTF-8",
        "perfbench.gitSha": git_sha(),
    }
    return ([java, "-Xms" + DRIVER_HEAP, "-Xmx" + DRIVER_HEAP, "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch"]
            + ["--add-opens=%s=ALL-UNNAMED" % p for p in ADD_OPENS]
            + ["-D%s=%s" % kv for kv in props.items()]
            + ["-cp", classpath, "perfbench.Main",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(PROGRAM_SRC):
        sys.exit("no program sources at %s: run from a full checkout" % PROGRAM_SRC)

    build()
    for d in ("spark-local", "warehouse", "tmp", "work"):
        os.makedirs(os.path.join(OUT, d), exist_ok=True)
    env = dict(os.environ)
    cores = min(MAX_CORES, os.cpu_count() or 1)
    env["SPARK_MASTER"] = "local[%d]" % cores
    # The repository's own shuffle-partition default applies.
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)

    proc = subprocess.Popen(java_command(args), cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if code != 0:
        sys.exit("benchmark JVM failed (exit %s)" % code)
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("benchmark JVM printed no result")


if __name__ == "__main__":
    main()
