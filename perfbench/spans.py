"""Spans around calls into the gme_maps modules, recorded from the benchmark side.

The tracer replaces module-level names that callers look up at call time
(``cli.detect``, ``detect.apply``, ``criteria.dual``, ``serialize.dumps_report``
...) with timing wrappers, and puts the originals back afterwards.  Nothing
inside the library is changed.  A name that no longer exists is skipped, so a
layer that a later version bypasses reports zero calls instead of failing.

Spans are kept in memory as ``[name, start, end, parent index, op id]`` and
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "criteria", "maps", "operators", "states", "detect", "serialize")

# (module whose global is replaced, global name, span name).  The span name's
# prefix is the layer that owns the called function, not the caller.
WRAPPED = (
    # cli calls detect's entry points by the names it imported from it
    ("gme_maps.cli", "detect", "detect.detect"),
    ("gme_maps.cli", "noise_threshold", "detect.noise_threshold"),
    ("gme_maps.cli", "white_noise_threshold", "detect.white_noise_threshold"),
    ("gme_maps.cli", "lambda_scan", "detect.lambda_scan"),
    ("gme_maps.cli", "verify_biseparable_positivity", "detect.verify_biseparable_positivity"),
    # cli calls these through the module objects criteria, maps, states, serialize
    ("gme_maps.criteria", "build_map", "criteria.build_map"),
    ("gme_maps.criteria", "map_to_witness", "criteria.map_to_witness"),
    ("gme_maps.criteria", "witness_to_map", "criteria.witness_to_map"),
    ("gme_maps.maps", "estimate_mu", "maps.estimate_mu"),
    ("gme_maps.maps", "mu_constant", "maps.mu_constant"),
    ("gme_maps.states", "ghz", "states.ghz"),
    ("gme_maps.states", "w_state", "states.w_state"),
    ("gme_maps.states", "depolarized", "states.depolarized"),
    ("gme_maps.states", "ppt_family", "states.ppt_family"),
    ("gme_maps.states", "maximally_mixed", "states.maximally_mixed"),
    ("gme_maps.serialize", "mapexpr_to_json", "serialize.mapexpr_to_json"),
    ("gme_maps.serialize", "mapexpr_from_json", "serialize.mapexpr_from_json"),
    ("gme_maps.serialize", "save_state", "serialize.save_state"),
    ("gme_maps.serialize", "load_state", "serialize.load_state"),
    ("gme_maps.serialize", "dumps_report", "serialize.dumps_report"),
    ("gme_maps.serialize", "scan_csv", "serialize.scan_csv"),
    # names detect imported from maps, operators and states
    ("gme_maps.detect", "apply", "maps.apply"),
    ("gme_maps.detect", "min_eig", "operators.min_eig"),
    ("gme_maps.detect", "is_density", "operators.is_density"),
    ("gme_maps.detect", "random_biseparable", "states.random_biseparable"),
    ("gme_maps.detect", "depolarized", "states.depolarized"),
    ("gme_maps.detect", "ppt_family", "states.ppt_family"),
    ("gme_maps.detect", "maximally_mixed", "states.maximally_mixed"),
    ("gme_maps.detect", "maximally_entangled", "states.maximally_entangled"),
    # names criteria imported from maps and operators
    ("gme_maps.criteria", "apply", "maps.apply"),
    ("gme_maps.criteria", "dual", "maps.dual"),
    ("gme_maps.criteria", "is_hermitian", "operators.is_hermitian"),
)
# cli encodes and parses map files itself with json.dump / json.load; that is
# the map format's cost, so it counts as serialize.  cli's global ``json`` is
# swapped for a copy of the namespace, leaving the json module untouched.
CLI_JSON = {"dump": "serialize.json_dump", "load": "serialize.json_load"}

ROOT_SPAN = "cli.main"
SOLVES = {"detect.noise_threshold", "detect.white_noise_threshold"}
STATES_GEN = "states."
WRITE_SPANS = {"serialize.mapexpr_to_json", "serialize.json_dump", "serialize.save_state",
               "serialize.dumps_report", "serialize.scan_csv"}
READ_SPANS = {"serialize.mapexpr_from_json", "serialize.json_load", "serialize.load_state"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def call_root(self, op_id: int, fn, *args):
        """Run fn(*args) as the root span of op ``op_id``."""
        self.op = op_id
        rec = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                self._replace(module, attr, self.wrap(fn, span))
            else:
                self.missing.append(f"{module_name}.{attr}")
        cli = importlib.import_module("gme_maps.cli")
        if isinstance(getattr(cli, "json", None), types.ModuleType):
            proxy = types.SimpleNamespace(**vars(cli.json))
            for attr, span in CLI_JSON.items():
                setattr(proxy, attr, self.wrap(getattr(proxy, attr), span))
            self._replace(cli, "json", proxy)
        else:
            self.missing.append("gme_maps.cli.json")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(spans: list[list], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced op: self times and the named call totals."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_time: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    gen_time, gen_calls, solve_applies = 0.0, 0, 0
    for i, (name, _, _, parent, _) in enumerate(spans):
        self_time[name.split(".", 1)[0]] += dur[i] - child[i]
        total[name] += dur[i]
        calls[name] += 1
        if name.startswith(STATES_GEN) and (
                parent < 0 or not spans[parent][0].startswith(STATES_GEN)):
            gen_time += dur[i]
            gen_calls += 1
        elif name == "maps.apply":
            p = parent
            while p >= 0 and spans[p][0] not in SOLVES:
                p = spans[p][3]
            solve_applies += p >= 0
    solves = sum(calls[name] for name in SOLVES)

    per_op = 1.0 / max(ops, 1)
    apply_calls = calls["maps.apply"]
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_time[layer] * per_op, "s/op")
    m["criteria.build_map_s"] = (total["criteria.build_map"] * per_op, "s/op")
    m["maps.apply_s"] = (total["maps.apply"] * per_op, "s/op")
    m["maps.apply_calls"] = (apply_calls * per_op, "1/op")
    m["maps.apply_us_per_call"] = (total["maps.apply"] / apply_calls * 1e6 if apply_calls else 0.0,
                                   "us")
    m["maps.dual_s"] = (total["maps.dual"] * per_op, "s/op")
    m["maps.estimate_mu_s"] = (total["maps.estimate_mu"] * per_op, "s/op")
    m["operators.min_eig_s"] = (total["operators.min_eig"] * per_op, "s/op")
    m["operators.min_eig_calls"] = (calls["operators.min_eig"] * per_op, "1/op")
    m["operators.is_density_s"] = (total["operators.is_density"] * per_op, "s/op")
    m["states.gen_s"] = (gen_time * per_op, "s/op")
    m["states.gen_calls"] = (gen_calls * per_op, "1/op")
    m["detect.applies_per_solve"] = (solve_applies / solves if solves else 0.0, "count")
    m["serialize.write_s"] = (sum(total[name] for name in WRITE_SPANS) * per_op, "s/op")
    m["serialize.read_s"] = (sum(total[name] for name in READ_SPANS) * per_op, "s/op")
    m["cli.main_s"] = (total[ROOT_SPAN] * per_op, "s/op")
    return m


def layer_shares(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """Each layer's self time as a share of the whole op (cli.main)."""
    whole = metrics["cli.main_s"][0]
    return {layer: metrics[f"{layer}.self_s"][0] / whole if whole else 0.0 for layer in LAYERS}
