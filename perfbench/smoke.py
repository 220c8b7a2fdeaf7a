"""Self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/smoke.py

It shows that the output checks bite: a deliberately wrong expected value, or
a negative control that is no longer broken, drives failed_frac above 0,
while the unmodified workloads read 0.  It also runs the traced split once
and checks that the script refuses a directory without the library sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {message}")
    print(f"smoke: ok: {message}")


def failures(workload: str, trace: bool = False) -> tuple[list, run.Runner]:
    runner, _ = run.measure(workload, seed=0, seconds=1e-3, trace=trace)
    return [r for r in runner.records if r.error is not None], runner


def main() -> int:
    run.pin_environment()
    for name in workloads.WORKLOADS:
        failed, runner = failures(name)
        expect(not failed, f"{name}: {len(runner.records)} ops, failed_frac 0")

    good = workloads.THRESHOLDS
    workloads.THRESHOLDS = tuple((argv, p + 0.01 if argv[1] == "eta" else p) for argv, p in good)
    try:
        failed, runner = failures("threshold-small")
    finally:
        workloads.THRESHOLDS = good
    expect(bool(failed) and all(r.kind == "threshold:eta:ghz" for r in failed),
           f"wrong eta p* fails exactly the eta threshold ops "
           f"(failed_frac {len(failed) / len(runner.records):.3f})")

    good = workloads.NEGATIVE_CONTROL_C
    workloads.NEGATIVE_CONTROL_C = 1  # the correct phi-t(3) compensation: verify passes
    try:
        failed, runner = failures("fuzz-small")
    finally:
        workloads.NEGATIVE_CONTROL_C = good
    expect(bool(failed) and all(r.kind == "verify:negative-control" for r in failed),
           f"a negative control that verify accepts counts as failed "
           f"(failed_frac {len(failed) / len(runner.records):.3f})")

    failed, runner = failures("threshold-small", trace=True)
    layers = run.per_layer(runner, {})
    expect(not failed and not runner.tracer.missing, "traced run wraps every listed name")
    expect(layers["detect.applies_per_solve"][0] > 1,
           f"detect.applies_per_solve {layers['detect.applies_per_solve'][0]:g} > 1")

    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fuzz-small",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
