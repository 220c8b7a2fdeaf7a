"""gme-maps benchmark: drive the CLI subcommands in-process and report metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fuzz-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The process is one closed-loop client: it calls ``gme_maps.cli.main(argv)``
with one op outstanding at a time, in whole passes over the workload's op mix,
and checks every op's output against the paper's values.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer split and the tracing overhead.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with provenance, and with
``--trace 1`` the raw spans, are written to ``perfbench/out/``.

The library is imported from ``src/`` of the checkout the script sits in,
never from an installed copy; without it the script exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, SAMPLES_PER_PROBE, ReferenceKernel
from spans import Tracer, layer_metrics, layer_shares
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
WARMUP_S = 1.0
LOCAL_WINDOW = 2
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # never more than nproc


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> None:
    """One BLAS thread and no GME_MAPS_THREADS, set before numpy loads.

    One thread keeps the process on one core of a small shared machine, so
    the other core's load and BLAS thread hand-offs do not enter the figures.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("GME_MAPS_THREADS", None)


def check_sources() -> None:
    if not (SRC / "gme_maps" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'gme_maps'} not found; run from a gme-maps checkout")


def load_library():
    """Import gme_maps (and its cli) from this checkout's src/ only."""
    check_sources()
    package = SRC / "gme_maps"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gme_maps

    if Path(gme_maps.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported gme_maps from {gme_maps.__file__}, not {package}")
    importlib.import_module("gme_maps.cli")
    return gme_maps


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None when unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def provenance(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": None, "version": None}
    blas["threads"] = blas_threads()
    blas["thread_env"] = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "nproc": nproc(),
            "gme_maps_threads_env": os.environ.get("GME_MAPS_THREADS")}


# ---------------------------------------------------------------------------
# set-up time, in fresh processes
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> None:
    """Time import gme_maps plus building the workload's inputs; print it as JSON.

    The reference kernel runs afterwards, so the parent can scale the time.
    """
    t0 = perf_counter()
    g = load_library()
    wl = WORKLOADS[workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=OUT))
    try:
        wl.setup(g, workdir)
        wl.pass_ops(pass_rng(workload, seed, 0))
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy as np

    kernel = ReferenceKernel(np)
    ref = statistics.median(kernel.sample() for _ in range(SAMPLES_PER_PROBE))
    print(json.dumps({"setup_s": elapsed, "reference_s": ref}))


def setup_times(workload: str, seed: int) -> list[dict]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# the op loop
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    kind: str
    phase: str  # "warmup", "untraced" or "traced"
    latency: float
    error: str | None
    bytes_out: int


class Runner:
    def __init__(self, cli, tracer: Tracer, kernel: ReferenceKernel):
        self.cli = cli
        self.tracer = tracer
        self.kernel = kernel
        self.records: list[OpRecord] = []
        self.reference: dict[str, list[float]] = {}  # phase -> kernel times

    def _call(self, argv: list[str], traced: bool) -> int | None:
        if traced:
            return self.tracer.call_root(len(self.records), self.cli.main, argv)
        return self.cli.main(argv)

    def run_op(self, op: Op, ctx: dict, phase: str) -> None:
        self.reference.setdefault(phase, []).append(self.kernel.sample())
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self._call(op.argv, phase == "traced")
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # any raise is a failed op, never a crashed run
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        text = out.getvalue()
        if error is None:
            try:
                error = op.check(rc, text, ctx)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
            if error is not None and err.getvalue():
                error += f" ({err.getvalue().strip()[:200]})"
        size = len(text.encode("utf-8"))
        size += sum(os.path.getsize(p) for p in op.outputs if os.path.isfile(p))
        self.records.append(OpRecord(op.kind, phase, latency, error, size))

    def run_pass(self, ops: list[Op], phase: str, budget_s: float = float("inf")) -> None:
        """Run the ops in order; stop early once ``budget_s`` has passed."""
        ctx: dict = {}
        if phase == "traced":
            self.tracer.install()
        t0 = perf_counter()
        try:
            for op in ops:
                self.run_op(op, ctx, phase)
                if perf_counter() - t0 >= budget_s:
                    break
        finally:
            self.tracer.uninstall()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Runner, dict]:
    g = load_library()
    import numpy as np

    cli = importlib.import_module("gme_maps.cli")
    wl = WORKLOADS[workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    runner = Runner(cli, Tracer(), ReferenceKernel(np))
    try:
        wl.setup(g, workdir)
        # Untimed ops let lazy set-up (first LAPACK calls, allocator arenas) finish.
        runner.run_pass(wl.pass_ops(pass_rng(workload, seed, 0)), "warmup", WARMUP_S)
        t0 = perf_counter()
        index = 1
        while True:
            phase = "traced" if trace and index % 2 == 0 else "untraced"
            ops = wl.pass_ops(pass_rng(workload, seed, index))
            runner.run_pass(ops, phase)
            index += 1
            if perf_counter() - t0 >= seconds and (not trace or index > 2):
                break
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = provenance(np)
    info.update(passes=index - 1, ops_per_pass=len(ops), measured_seconds=elapsed,
                unwrapped_names=runner.tracer.missing)
    return runner, info


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b) (Lentz's continued fraction)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) > tiny else tiny

    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    f = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            f *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * f / a


def percentile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A beta-weighted mean of all order statistics: with a few dozen samples it
    does not jump between op kinds the way a single order statistic does.
    """
    n = len(sorted_values)
    a, b = (n + 1) * q / 100.0, (n + 1) * (1 - q / 100.0)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    fits = [q for q in TAIL_LADDER if n * (1 - q / 100.0) >= TAIL_BEYOND]
    return max(fits) if fits else TAIL_LADDER[0]


def ops_per_s(kinds: list[str], latencies: list[float]) -> float:
    """Ops of one pass over the summed wall time of a typical pass.

    Each op kind's latency is taken as its median over the passes, so a burst
    of load from outside the process moves the figure less than a plain mean.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    return len(by_kind) / sum(statistics.median(v) for v in by_kind.values())


def scaled(latencies: list[float], reference: list[float]) -> list[float]:
    """Latencies at the nominal machine speed (see reference.py).

    reference[i] was timed just before op i; the speed at op i is the median
    of the kernel times within LOCAL_WINDOW ops of it.
    """
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(reference[max(0, i - LOCAL_WINDOW): i + LOCAL_WINDOW + 1])
        out.append(latency * NOMINAL_S / local)
    return out


def end_to_end(runner: Runner, setups: list[dict], info: dict) -> dict:
    measured = [r for r in runner.records if r.phase == "untraced"]
    kinds = [r.kind for r in measured]
    raw = [r.latency for r in measured]
    lat = scaled(raw, runner.reference["untraced"])
    q = tail_percentile(len(lat))
    failed = sum(r.error is not None for r in runner.records)
    attempted = len(runner.records)
    info.update(
        samples={"setup_s": len(setups), "op_p50_ms": len(lat), "op_tail_ms": len(lat)},
        op_tail_percentile=q,
        op_tail_beyond=len(lat) - int((len(lat) - 1) * q / 100.0) - 1,
        setup_probes=setups,
        reference_nominal_s=NOMINAL_S,
        reference_median_s=statistics.median(runner.reference["untraced"]),
        unscaled={"setup_s": statistics.median(p["setup_s"] for p in setups),
                  "ops_per_s": ops_per_s(kinds, raw),
                  "op_p50_ms": percentile(sorted(raw), 50.0) * 1e3,
                  "op_tail_ms": percentile(sorted(raw), q) * 1e3},
        failed_frac=failed / attempted)
    lat_sorted = sorted(lat)
    return {
        "setup_s": (statistics.median(p["setup_s"] * NOMINAL_S / p["reference_s"]
                                      for p in setups), "s"),
        "ops_per_s": (ops_per_s(kinds, lat), "ops/s"),
        "op_p50_ms": (percentile(lat_sorted, 50.0) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat_sorted, q) * 1e3, "ms"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner: Runner, info: dict) -> dict:
    traced = [r for r in runner.records if r.phase == "traced"]
    untraced = [r for r in runner.records if r.phase == "untraced"]
    m = layer_metrics(runner.tracer.spans, len(traced))
    m["serialize.bytes_out"] = (sum(r.bytes_out for r in traced) / len(traced), "B/op")
    # traced / untraced throughput: below 1 by the share of time the wrappers cost
    throughput = {phase: ops_per_s([r.kind for r in recs],
                                   scaled([r.latency for r in recs], runner.reference[phase]))
                  for phase, recs in (("traced", traced), ("untraced", untraced))}
    m["tracing.overhead"] = (throughput["traced"] / throughput["untraced"], "ratio")
    info["samples"] = {"traced_ops": len(traced), "untraced_ops": len(untraced),
                       "spans": len(runner.tracer.spans)}
    info["layer_shares"] = layer_shares(m)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setups = [] if trace else setup_times(workload, seed)
    runner, info = measure(workload, seed, seconds, trace)
    info.update(workload=workload, seed=seed, run_seconds=seconds, trace=trace)
    metrics = per_layer(runner, info) if trace else end_to_end(runner, setups, info)
    failures = [(r.kind, r.error) for r in runner.records if r.error is not None]
    attempted, failed = len(runner.records), len(failures)

    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        runner.tracer.write(OUT / f"{stem}.spans.jsonl")
    result = {"provenance": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": attempted, "failed": failed, "failures": failures[:50]}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"{workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"passes={info['passes']} ops={attempted} failed={failed}")
    for kind, error in failures[:10]:
        print(f"  FAILED {kind}: {error}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{info['op_tail_percentile']:g} of {info['samples']['op_tail_ms']} ops,"
                    f" {info['op_tail_beyond']} beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(setups)} fresh processes)"
        print(f"  {name:28s} {value:.6g} {unit}{note}")
    if trace:
        print("  self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in info["layer_shares"].items()))
    else:
        print(f"  {'failed_frac':28s} {info['failed_frac']:.6g} ratio  ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, val in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = val
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time; passes always run to completion")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    check_sources()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
