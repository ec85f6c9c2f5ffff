#!/usr/bin/env python3
"""Build the benchmark from source in this checkout, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build lives in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root.  Build output goes to stderr, so the benchmark's
result stays the last line of stdout.  A traced run also writes its spans to
spans-<workload>.tsv in the build directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], stdout=sys.stderr, check=True,
                   env=env)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "server.hpp")):
        sys.stderr.write("perfbench: the library sources (src/) are not in this checkout\n")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.stderr.write("perfbench: build failed: %s\n" % error)
        return 2
    args = list(argv)

    def value(flag):
        return args[args.index(flag) + 1] if flag in args[:-1] else None

    if value("--trace") == "1" and value("--workload"):
        args += ["--spans", os.path.join(build_dir, "spans-%s.tsv" % value("--workload"))]
    return subprocess.run([os.path.join(build_dir, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
