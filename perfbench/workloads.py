"""The benchmark's three op mixes and the paper values each op is checked against.

An op is one ``gme_maps.cli.main(argv)`` call.  A workload is a fixed list of
ops, repeated in passes; the workload seed only shuffles the order inside a
pass and picks the ``--seed`` of the randomised subcommands, so every pass
does the same work.

Checks compare against closed-form values from the paper, never against
implementation details (bisection brackets, iteration counts, warnings,
eigenvector phases, field order or violation records): later changes to
those must not show up as failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# check(exit code, stdout, pass context) -> None when the op is correct, else the reason.
Check = Callable[[int, str, dict], "str | None"]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list[str]
    check: Check
    outputs: tuple[str, ...] = ()  # files the op writes, counted in serialize.bytes_out


def alpha_critical(n: int, d: int) -> float:
    """Critical GHZ visibility of the lifted Choi criterion (paper closed form)."""
    a = (d - 2) * (2 ** (n - 1) - 1) + 1
    return a / (a + (d - 2) * d ** (n - 1))


def eta_threshold(n: int) -> float:
    """Critical GHZ visibility of the optimised qubit criterion eta."""
    return (2 ** (n - 1) - 1) / (2 ** n - 1)


def _expect_exit(code: int) -> Check:
    def check(rc, out, ctx):
        return None if rc == code else f"exit {rc}, expected {code}"
    return check


# ---------------------------------------------------------------------------
# fuzz-small: verify every catalog map at its smallest size, plus mu estimates
# ---------------------------------------------------------------------------

SMALLEST = {"phi-t": (3, 2), "phi-tx": (3, 2), "eta": (3, 2), "phi-r": (3, 2),
            "phi-b": (3, 4), "mu-choi": (3, 3)}
VERIFY_SAMPLES = 40
MU_SAMPLES = 200
MU_PRIMITIVES = ("transpose", "reduction", "breuer-hall")
# phi-t(3) compensates with c I Tr, c = (2^(n-1) - 2) * mu(T) = 1.  The negative
# control scales it by 999/1000, which the adversarial product state exposes.
NEGATIVE_CONTROL_C = Fraction(999, 1000)


def write_negative_control(g, path: Path) -> None:
    """phi-t(3) with an undersized compensation, built from public constructors."""
    from gme_maps import serialize

    dims = (2, 2, 2)
    lifts = [g.lift(g.transpose_map(2 ** len(A)), A, dims) for A in g.bipartitions(3)]
    expr = g.map_sum(*lifts, g.trace_identity(NEGATIVE_CONTROL_C, 8))
    path.write_text(json.dumps(serialize.mapexpr_to_json(expr)) + "\n", encoding="utf-8")


def _mu_check(rc, out, ctx):
    if rc != 0:
        return f"exit {rc}, expected 0"
    if json.loads(out)["within_tolerance"] is not True:
        return "within_tolerance is not true"
    return None


class FuzzSmall:
    name = "fuzz-small"

    def setup(self, g, workdir: Path) -> None:
        self.negative_control = workdir / "phi-t3-undersized.json"
        write_negative_control(g, self.negative_control)

    def pass_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for map_id, (n, d) in SMALLEST.items():
            ops.append(Op(f"verify:{map_id}",
                          ["verify", "--map", map_id, "--n", str(n), "--d", str(d),
                           "--samples", str(VERIFY_SAMPLES), "--seed", str(rng.randrange(2 ** 31))],
                          _expect_exit(0)))
        for prim in MU_PRIMITIVES:
            ops.append(Op(f"mu:{prim}",
                          ["mu", "--primitive", prim, "--samples", str(MU_SAMPLES),
                           "--seed", str(rng.randrange(2 ** 31))],
                          _mu_check))
        # Exit 1 (violation found) is the correct outcome; anything else is a failure.
        ops.append(Op("verify:negative-control",
                      ["verify", "--map-file", str(self.negative_control), "--n", "3",
                       "--samples", str(VERIFY_SAMPLES), "--seed", str(rng.randrange(2 ** 31))],
                      _expect_exit(1)))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# threshold-small: noise thresholds and family scans at the smallest sizes
# ---------------------------------------------------------------------------

P_STAR_TOL = 1e-6
THRESHOLDS = (
    # (argv after "threshold", paper value of p*)
    (["--map", "phi-tx", "--n", "3", "--state", "ghz"], 11 / 15),
    (["--map", "eta", "--n", "3", "--state", "ghz"], 3 / 7),
    (["--map", "phi-r", "--n", "3", "--d", "2", "--state", "ghz"], 11 / 15),
    (["--map", "phi-b", "--n", "3", "--d", "4", "--state", "ghz"], 35 / 51),
    (["--map", "mu-choi", "--n", "3", "--d", "3", "--state", "ghz"], alpha_critical(3, 3)),
    (["--map", "phi-t", "--n", "3", "--state", "w"], 11 * math.sqrt(3) / (16 + 3 * math.sqrt(3))),
    (["--map", "mu-choi", "--n", "3", "--d", "3", "--state", "ppt",
      "--lam", repr(1 / 9)], 9 / 179),
)
SCANS = (
    # (argv after "scan", grid length, rows that must read detected)
    (["--map", "mu-choi", "--n", "3", "--d", "3", "--family", "ppt-qutrit",
      "--grid", "0.01:0.40:0.01"], 39, lambda lam: lam < 1 / 3),
    (["--map", "eta", "--n", "3", "--family", "noisy-ghz",
      "--grid", "0.0:1.0:0.025"], 40, lambda p: p > 3 / 7),
)


def _p_star_check(expected: float) -> Check:
    def check(rc, out, ctx):
        if rc != 0:
            return f"exit {rc}, expected 0"
        got = json.loads(out)["p_star"]
        if abs(got - expected) > P_STAR_TOL:
            return f"p_star {got!r}, expected {expected!r}"
        return None
    return check


def _scan_check(rows_expected: int, detected_when: Callable[[float], bool]) -> Check:
    def check(rc, out, ctx):
        if rc != 0:
            return f"exit {rc}, expected 0"
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != rows_expected:
            return f"{len(rows)} rows, expected {rows_expected}"
        for row in rows:
            param = float(row["param"])
            if (row["detected"] == "true") != detected_when(param):
                return f"row {param!r} reads detected={row['detected']}"
        return None
    return check


class ThresholdSmall:
    name = "threshold-small"

    def setup(self, g, workdir: Path) -> None:
        pass

    def pass_ops(self, rng: random.Random) -> list[Op]:
        ops = [Op(f"threshold:{argv[1]}:{argv[argv.index('--state') + 1]}", ["threshold", *argv],
                  _p_star_check(p))
               for argv, p in THRESHOLDS]
        ops += [Op(f"scan:{argv[1]}", ["scan", *argv], _scan_check(rows, when))
                for argv, rows, when in SCANS]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# detect-scaled: detection, witnesses and map-file round trips at D = 128..256
# ---------------------------------------------------------------------------

SCALED = (("eta", 7, 2), ("eta", 8, 2), ("phi-tx", 8, 2), ("phi-t", 8, 2),
          ("phi-r", 5, 3), ("phi-b", 4, 4), ("mu-choi", 5, 3))
MIN_EIG_GHZ = {("phi-tx", 8): -0.5}
MIN_EIG_TOL = 1e-9
WITNESS_TOL = 1e-8
FLIP_OFFSET = 0.02


def _critical_visibility(map_id: str, n: int, d: int) -> float | None:
    if map_id == "eta":
        return eta_threshold(n)
    if map_id == "mu-choi":
        return alpha_critical(n, d)
    return None


def _detect_check(key: str, expected: float | None) -> Check:
    """Exported-map detect on pure GHZ; keeps min_eig for the round trip."""
    def check(rc, out, ctx):
        if rc != 0:
            return f"exit {rc}, expected 0"
        got = json.loads(out)["min_eig"]
        ctx[key] = got
        if expected is not None and abs(got - expected) > MIN_EIG_TOL:
            return f"min_eig {got!r}, expected {expected!r}"
        return None
    return check


def _round_trip_check(key: str) -> Check:
    def check(rc, out, ctx):
        if rc != 0:
            return f"exit {rc}, expected 0"
        if key not in ctx:
            return "no exported-map result to compare with"
        got = json.loads(out)["min_eig"]
        if abs(got - ctx[key]) > MIN_EIG_TOL:
            return f"re-imported min_eig {got!r} differs from {ctx[key]!r}"
        return None
    return check


def _witness_check(detected: bool | None) -> Check:
    def check(rc, out, ctx):
        if rc != 0:
            return f"exit {rc}, expected 0"
        rep = json.loads(out)
        if abs(rep["witness_expectation"] - rep["min_eig"]) > WITNESS_TOL:
            return (f"witness_expectation {rep['witness_expectation']!r} "
                    f"!= min_eig {rep['min_eig']!r}")
        if detected is not None and rep["detected"] is not detected:
            return f"detected={rep['detected']}, expected {detected}"
        return None
    return check


def _detected_check(detected: bool) -> Check:
    def check(rc, out, ctx):
        if rc != 0:
            return f"exit {rc}, expected 0"
        got = json.loads(out)["detected"]
        return None if got is detected else f"detected={got}, expected {detected}"
    return check


class DetectScaled:
    name = "detect-scaled"

    def setup(self, g, workdir: Path) -> None:
        self.workdir = workdir

    def _chain(self, map_id: str, n: int, d: int) -> list[Op]:
        """Ops for one map, in dependency order: export, re-import, witness, flip."""
        tag = f"{map_id}-n{n}"
        size = ["--n", str(n), "--d", str(d)]
        exported = str(self.workdir / f"{tag}.map.json")
        witness = str(self.workdir / f"{tag}.witness.json")
        p_star = _critical_visibility(map_id, n, d)
        ops = [
            Op(f"detect:{tag}",
               ["detect", "--map", map_id, *size, "--state", "ghz", "--export-map", exported],
               _detect_check(tag, MIN_EIG_GHZ.get((map_id, n))), (exported,)),
            Op(f"detect-map-file:{tag}",
               ["detect", "--map-file", exported, *size, "--state", "ghz"],
               _round_trip_check(tag)),
        ]
        if p_star is None:
            ops.append(Op(f"witness:{tag}",
                          ["witness", "--map", map_id, *size, "--state", "ghz",
                           "--output", witness],
                          _witness_check(None), (witness,)))
        else:
            # Detection must flip between p* - 0.02 and p* + 0.02.
            ops.append(Op(f"witness:{tag}",
                          ["witness", "--map", map_id, *size, "--state", "ghz",
                           "--noise", repr(p_star + FLIP_OFFSET), "--output", witness],
                          _witness_check(True), (witness,)))
            ops.append(Op(f"detect-below:{tag}",
                          ["detect", "--map", map_id, *size, "--state", "ghz",
                           "--noise", repr(p_star - FLIP_OFFSET)],
                          _detected_check(False)))
        return ops

    def pass_ops(self, rng: random.Random) -> list[Op]:
        chains = [self._chain(*cfg) for cfg in SCALED]
        rng.shuffle(chains)
        return [op for chain in chains for op in chain]


WORKLOADS = {w.name: w for w in (FuzzSmall, ThresholdSmall, DetectScaled)}
