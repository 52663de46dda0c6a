#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <fl_train_smm|sum_masked_smm|tcp_rounds|all>
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call builds the program from source with CMake into the build
directory ($CARGO_TARGET_DIR when set, else .bench_build, relative to the
checkout) and then runs the benchmark binary with the same arguments. The
binary prints its report to stderr and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. Traced runs
(--trace 1) also write their spans, one JSON object per line, into the build
directory. --self-test builds and runs the span recorder's unit test.

Exits nonzero, without a result line, when the checkout lacks the program's
sources or the build fails; the binary exits nonzero on bad arguments and on
failed output checks.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ("perfbench", "span_recorder_test")


def fail(message):
    sys.stderr.write("perfbench/run.py: %s\n" % message)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; fails loudly."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        fail("build step failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no program sources: %s needs CMakeLists.txt and src/" % ROOT)
    out = build_dir()
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "--target", *TARGETS, "-j", jobs], env)
    return out


def main(argv):
    if not argv or argv in (["-h"], ["--help"]):
        sys.stderr.write(__doc__)
        return 2
    out = build()
    # The program reads runtime tuning and dispatch overrides from SMM_*
    # variables; the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMM_")}
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(out, "span_recorder_test")],
                              env=env).returncode
    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1" and "--trace-out" not in opts:
        name = "trace-%s-%s.jsonl" % (opts.get("--workload"), opts.get("--seed"))
        args += ["--trace-out", os.path.join(out, name)]
    return subprocess.run([os.path.join(out, "perfbench"), *args],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
