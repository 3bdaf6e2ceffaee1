#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload t1-mlp --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/CMakeLists.txt (the library plus the
perfbench harness, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the harness.  Build output goes to stderr;
the harness's last stdout line is the JSON result.  See perfbench/README.md.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("t1-mlp", "cnn-cifar10", "dispatch-churn")
# The harness must finish well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170
USAGE = (
    "usage: python3 perfbench/run.py --workload {%s} --seed N --seconds S --trace 0|1\n"
    % "|".join(WORKLOADS)
)


def fail(message, code=2):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def parse_args(argv):
    if "--help" in argv or "-h" in argv:
        sys.stdout.write(USAGE)
        sys.exit(0)
    values = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        key, eq, value = arg.partition("=")
        if key not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument %r\n%s" % (arg, USAGE))
        if not eq:
            if i + 1 >= len(argv):
                fail("%s needs a value" % key)
            i += 1
            value = argv[i]
        values[key[2:]] = value
        i += 1
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in values:
            fail("--%s is required\n%s" % (key, USAGE))
    if values["workload"] not in WORKLOADS:
        fail("unknown workload %r" % values["workload"])
    return values


def build():
    """Configure once, then (re)build the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no library sources next to %s (expected ../CMakeLists.txt and ../src)" % HERE, 1)
    if shutil.which("cmake") is None:
        fail("cmake not found", 1)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args(sys.argv[1:])
    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        fail("build failed: %s" % error, 1)
    command = [
        binary,
        "--workload", args["workload"],
        "--seed", args["seed"],
        "--seconds", args["seconds"],
        "--trace", args["trace"],
        "--golden-dir", os.path.join(HERE, "golden"),
    ]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the harness's workers.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("harness exceeded %d s" % RUN_TIMEOUT_S, 1)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
