#!/usr/bin/env python3
"""Build the fpsnr end-to-end benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fields --seed 1 --seconds 15 --trace 0

The library and the perfbench binary are built in Release under .bench_build/ (or
$CARGO_TARGET_DIR when set) the first time; later runs only re-check the
build. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. The exit code is the binary's; a failed build or a
run that overruns its time limit exits non-zero without a result.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def _have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def main():
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    proc = subprocess.Popen([os.path.join(out, "perfbench")] + sys.argv[1:],
                            cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
