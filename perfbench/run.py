#!/usr/bin/env python3
"""End-to-end campaign benchmark for Benchpark-CPP.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cold_matrix, warm_rerun, service_tenants, native_kernels
(see BENCHMARK.json for why each exists).

The script builds perfbench/ (which compiles the repository's src/ tree)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, with
build output on stderr. It then runs the harness binary, whose stdout
ends with one JSON line of metrics, and exits with the harness's code.

Workspaces and stores live in .bench_build/work/<pid>, a private tmpfs
mounted in unprivileged user and mount namespaces: the campaigns' many
small crash-safe writes would otherwise measure the disk instead of the
program, at about ten times the cold-campaign time. Where the tmpfs
cannot be mounted the script exits with code 3 and prints no result, as
figures from a disk could not be compared with any others.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
TMPFS_SIZE = "512m"
# Mount a private tmpfs over "$0", then run "$@" there.
TMPFS_SHELL = f'mount -t tmpfs -o size={TMPFS_SIZE} perfbench "$0" && exec "$@"'
NAMESPACE = ["unshare", "--user", "--map-root-user", "--mount"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no benchpark sources under {ROOT / 'src'}; nothing to measure")
        sys.exit(2)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench_e2e"


def tmpfs_available(work):
    try:
        probe = subprocess.run(
            [*NAMESPACE, "sh", "-c", TMPFS_SHELL, str(work), "true"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return probe.returncode == 0


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    work = target / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if not tmpfs_available(work):
        shutil.rmtree(work, ignore_errors=True)
        log("cannot mount a private tmpfs (unshare --user --mount); "
            "refusing to measure the disk")
        return 3
    # The tmpfs and everything in it are gone with the namespace.
    cmd = [*NAMESPACE, "sh", "-c", TMPFS_SHELL, str(work),
           str(binary), *sys.argv[1:], "--root", str(work)]
    try:
        result = subprocess.run(cmd, cwd=ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
