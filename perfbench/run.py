#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (when
set) or .bench_build/, span traces to .bench_out/.  For the `serve` workload
this script starts spmvoptd on a Unix socket under the build directory and
stops it afterwards.  The last line of stdout is the benchmark's JSON result;
build and server logs go to stderr.  Exits non-zero, without a result, when
the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-cg", "spmv-classes", "spmv-dram", "serve")
SERVE_THREADS = "2"  # spmvoptd compute team; see README.md, Threads and pinning
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    """Configure once, then let the build tool bring the two binaries up to
    date; returns the CMake build directory."""
    cmake_dir = build_dir / "cmake"
    if not any((cmake_dir / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target",
                    "spmvbench", "spmvoptd", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return cmake_dir


def stop(proc: subprocess.Popen) -> None:
    """Wait for a process to end, asking harder the longer it takes."""
    for signal_it, wait_s in ((None, 10), (proc.terminate, 5), (proc.kill, 5)):
        if signal_it is not None:
            signal_it()
        try:
            proc.wait(timeout=wait_s)
            return
        except subprocess.TimeoutExpired:
            continue


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        cmake_dir = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    bench = cmake_dir / "spmvbench"
    daemon = cmake_dir / "spmvopt" / "tools" / "spmvoptd"

    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out = Path(".bench_out")
        out.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out / f"trace-{args.workload}-seed{args.seed}.json")]

    server = None
    try:
        if args.workload == "serve":
            # A relative path keeps the socket name within the sun_path limit
            # wherever the checkout lives; both processes share this cwd.
            sock = Path(os.path.relpath(build_dir)) / f"spmvoptd-{os.getpid()}.sock"
            server = subprocess.Popen(
                [str(daemon), "--socket", str(sock), "--threads", SERVE_THREADS,
                 "--pin=compact"], stdout=sys.stderr, stderr=sys.stderr)
            cmd += ["--socket", str(sock)]
        t0 = time.monotonic()
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
        print(f"run.py: {args.workload} seed {args.seed}: "
              f"{time.monotonic() - t0:.1f} s, exit {res.returncode}",
              file=sys.stderr)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in time", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            stop(server)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        return res.returncode
    sys.stdout.write(res.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
