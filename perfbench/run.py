#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

The first run compiles the program's sources (src/main/scala) together with
the benchmark's (perfbench/src/main/scala) into .bench_build/perfbench/classes
with the Scala compiler that ships in Spark's jars directory, the same jars
the program runs on. It needs no build tool, no network and nothing outside
the checkout but Java and Spark; later runs reuse the classes while the
sources are unchanged. The measured JVM writes its results, spans and Spark
scratch files under .bench_build/perfbench. The last line of standard output
is the result object printed by perfbench.Main.
"""

import glob
import hashlib
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 600


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout, **kw):
    """Runs cmd and waits for it; kills it if this script is stopped or the
    timeout passes, so no process outlives the run. Returns (code, stdout)."""
    try:
        p = subprocess.Popen(cmd, **kw)
    except OSError as e:
        fail(f"cannot start {cmd[0]}: {e}", 1)

    def stop(signum, _frame):
        p.kill()
        p.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail(f"{cmd[0]} exceeded {timeout} s", 1)
    return p.returncode, out


def java():
    home = os.environ.get("JAVA_HOME")
    if home and os.access(os.path.join(home, "bin", "java"), os.X_OK):
        return os.path.join(home, "bin", "java")
    found = shutil.which("java")
    if not found:
        fail("no java: set JAVA_HOME or put java on the PATH", 1)
    return found


def spark_jars():
    """Spark's jars directory: the program's dependencies and the compiler.
    Taken from SPARK_HOME, else from spark-submit on the PATH, else from the
    unmanagedBase directory the project's build.sbt compiles against."""
    dirs = []
    if os.environ.get("SPARK_HOME"):
        dirs.append(os.path.join(os.environ["SPARK_HOME"], "jars"))
    submit = shutil.which("spark-submit")
    if submit:
        dirs.append(os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(submit))), "jars"))
    with open(os.path.join(ROOT, "build.sbt")) as fh:
        dirs += re.findall(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', fh.read())
    for d in dirs:
        if glob.glob(os.path.join(d, "scala-compiler-*.jar")):
            return d
    fail("no Spark jars directory with a Scala compiler: set SPARK_HOME", 1)


def sources():
    """Every source file the build reads, in a stable order."""
    files = []
    for r in [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src", "main", "scala")]:
        for d, _, names in sorted(os.walk(r)):
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith((".scala", ".java"))]
    return files


def build(jars):
    """Compiles if the sources changed since the last build; returns the
    runtime classpath."""
    cp = os.pathsep.join([CLASSES, os.path.join(jars, "*")])
    srcs = sources()
    stamp = hashlib.sha256(jars.encode())
    for f in srcs:
        stamp.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            stamp.update(fh.read())
    stamp = stamp.hexdigest()
    stamp_file = os.path.join(OUT, "build.stamp")
    if os.path.isdir(CLASSES) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return cp

    fresh = CLASSES + ".new"
    shutil.rmtree(fresh, ignore_errors=True)
    os.makedirs(fresh)
    args = os.path.join(OUT, "sources.txt")
    with open(args, "w") as fh:
        fh.writelines(f'"{f}"\n' for f in srcs)
    cmd = [java(), "-Xss16m", "-Xmx2g", f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", fresh, "@" + args]
    code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if code != 0:
        sys.stderr.write(out)
        fail("build failed", 1)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(fresh, CLASSES)
    with open(stamp_file, "w") as fh:
        fh.write(stamp + "\n")
    return cp


def main():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"no program sources under {os.path.join(ROOT, 'src', 'main', 'scala')}; "
             "run from the root of a full checkout")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cp = build(spark_jars())
    with open(os.path.join(HERE, "jvm.options")) as fh:
        jvm = [l.strip() for l in fh if l.strip()]
    cmd = ([java()] + jvm +
           [f"-Djava.io.tmpdir={tmp}", f"-XX:ErrorFile={os.path.join(OUT, 'hs_err_%p.log')}",
            f"-Dlog4j.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
            "-cp", cp, "perfbench.Main"] + sys.argv[1:] + ["--out", OUT])
    # Spark's scratch space stays inside the checkout.
    code, _ = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT,
                        env=dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(OUT, "spark-tmp"),
                                 SPARK_LOCAL_IP="127.0.0.1"))
    sys.exit(code)


if __name__ == "__main__":
    main()
