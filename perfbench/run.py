#!/usr/bin/env python3
"""FLINT's benchmark: build the driver from source, run one workload, report.

    python3 perfbench/run.py --workload fedbuff_train --seed 1 --seconds 10 --trace 0

Run from the root of a FLINT checkout. The first run configures and builds
the benchmark (CMake, Release) into .bench_build/. Each run then starts
perfbench_driver in a fresh scratch directory under .bench_tmp/ (spill
chunks, checkpoints and the fleet's socket live there), relays its output and
removes the directory. With --trace 1 the driver's span file is kept in
.bench_out/. The last line printed is the result object; the exit status is
non-zero when the build fails, an output check fails, or the driver does not
finish in time. README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fedbuff_train", "population_stream", "fedavg_fleet")
BUILD_JOBS = "4"
# The driver must finish well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then bring the two binaries the benchmark runs up to date."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--parallel", BUILD_JOBS,
                    "--target", "perfbench_driver", "flint_executor"],
                   stdout=sys.stderr, check=True)


def stop_group(proc):
    """SIGKILL whatever is left of the driver's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()  # reap the driver, so only its leftover children keep the group
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log(f"process group {proc.pid} still has members after SIGKILL")


def run_driver(cmd, cwd):
    """Run the driver in its own process group so no executor outlives it."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {DRIVER_TIMEOUT_S:.0f} s")
        return None, 1
    finally:
        stop_group(proc)
    return out, proc.returncode


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # A SIGTERM must unwind through the cleanup below like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build"
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    scratch_root = root / ".bench_tmp"
    scratch = scratch_root / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(build_dir / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--executor", str(build_dir / "flint_executor")]
    if args.trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(out_dir / f"{args.workload}-seed{args.seed}.spans.json")]
    try:
        out, code = run_driver(cmd, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run's directory is still there
    if out is None:
        return 1
    lines = out.rstrip("\n").splitlines()
    if not lines or not valid_result(lines[-1]):
        sys.stdout.write(out)
        log(f"driver exited {code} without a result")
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
