"""Command line front end: detect, threshold, scan, mu, verify, witness.

Every run is determined by its flags and seed; reports are emitted as
canonical JSON (CSV for scans) so identical invocations produce identical
bytes.  Exit code 2 signals a configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import criteria, maps, serialize, states
from .detect import (DETECT_TOL, detect, lambda_scan, noise_threshold,
                     verify_biseparable_positivity, visibility_scan,
                     white_noise_threshold)
from .operators import BlockOperator, MpOperator, SiteDims, is_hermitian, whole_matrix
from .states import PureState

#: most rows `scan --grid` may ask for; checked before any row is built
MAX_GRID_ROWS = 10_000
#: the primitives `mu` estimates: name -> (constructor of d, default d)
_PRIMITIVES = {"transpose": (maps.transpose_map, 2), "reduction": (maps.reduction_map, 2),
               "breuer-hall": (maps.breuer_hall_map, 4)}


def _add_map_args(p: argparse.ArgumentParser, with_witness: bool = False) -> None:
    p.add_argument("--map", choices=criteria.MAP_IDS, help="cataloged map id")
    p.add_argument("--map-file", help="map expression JSON (mapexpr-v4, or v3, v2 or v1 as older "
                                      "releases wrote it); used instead of --map")
    if with_witness:
        p.add_argument("--witness-file", help="witness JSON (mpop-v2 or v1); used instead of --map")
    p.add_argument("--n", type=int, default=None, help="number of parties (default 3)")
    p.add_argument("--d", type=int, default=None,
                   help="local dimension (default: smallest for --map, else 2)")


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", choices=("ghz", "w", "ppt", "mixed"),
                   help="named state family")
    p.add_argument("--state-file", help="state JSON (mpop-v2 or v1)")
    p.add_argument("--noise", type=float, default=None,
                   help="visibility p for ghz/w, white-noise fraction for ppt")
    _add_lam_arg(p)


def _add_lam_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lam", default=None,
                   help="ppt family parameter(s): one value or l1,l2,l3 (default 1/9)")


def _parse_lam(text: str | None) -> tuple[float, float, float]:
    if text is None:
        return (1 / 9,) * 3
    parts = [float(x) for x in str(text).split(",")]
    if len(parts) == 1:
        return (parts[0],) * 3
    if len(parts) == 3:
        return tuple(parts)  # type: ignore[return-value]
    raise ValueError("--lam takes one value or three comma-separated values")


def _resolve_d(args) -> int:
    if args.d is not None:
        return args.d
    map_id = getattr(args, "map", None)
    return criteria.SMALLEST[map_id][1] if map_id else 2


def _dims_of_expr(expr: maps.MapExpr, args) -> SiteDims:
    if expr.sites:
        _check_dims_flags(expr.sites[0], args, "map file")
        return expr.sites[0]
    dims = SiteDims((_resolve_d(args),) * (3 if args.n is None else args.n))
    if dims.total != expr.dim:
        raise ValueError(
            f"map file dimension {expr.dim} does not match --n/--d ({dims.dims})")
    return dims


def _check_dims_flags(dims: SiteDims, args, source: str) -> None:
    """An --n or --d given with a map or witness file must match its sites."""
    if args.n not in (None, dims.n) or args.d is not None and set(dims.dims) != {args.d}:
        raise ValueError(f"--n/--d disagree with the sites {dims.dims} of the {source}")


#: the operator fields that a map file's nodes must hold Hermitian
_HERMITIAN_FIELDS = {maps.SchurWith: ("mask",), maps.TraceOuter: ("weight", "output")}


def _check_hermitian_nodes(expr: maps.MapExpr, path: str) -> None:
    """A map file must preserve Hermiticity: its Schur masks and trace-outer
    weights and outputs are Hermitian."""
    for node in maps.nodes(expr):
        for name in _HERMITIAN_FIELDS.get(type(node), ()):
            if not is_hermitian(getattr(node, name)):
                raise ValueError(f"map file {path}: {serialize.node_kind(node)} node "
                                 f"has a non-Hermitian {name}")


def _build_gme_map(args) -> criteria.GmeMap:
    given = [f for f in ("--map", "--map-file", "--witness-file")
             if getattr(args, f[2:].replace("-", "_"), None)]
    if len(given) > 1:
        raise ValueError(f"give only one of {', '.join(given)}")
    if getattr(args, "witness_file", None):
        w = serialize.load_state(args.witness_file)
        if isinstance(w, PureState):
            raise ValueError("witness file must hold a matrix, not a pure state")
        if w.dims.total > criteria.MAX_DIM:
            raise ValueError(f"witness file dimension {w.dims.total} exceeds the supported "
                             f"maximum {criteria.MAX_DIM}")
        _check_dims_flags(w.dims, args, "witness file")
        return criteria.witness_to_map(w)
    if getattr(args, "map_file", None):
        with serialize.reading(args.map_file, "map file") as fh:
            expr = serialize.mapexpr_from_json(json.load(fh))
        if expr.dim > criteria.MAX_DIM:
            raise ValueError(f"map file dimension {expr.dim} exceeds the supported "
                             f"maximum {criteria.MAX_DIM}")
        _check_hermitian_nodes(expr, args.map_file)
        return criteria.GmeMap("map-file", expr, _dims_of_expr(expr, args))
    if not args.map:
        raise ValueError("either --map, --map-file or --witness-file is required")
    return criteria.build_map(args.map, 3 if args.n is None else args.n, _resolve_d(args))


def _check_lam(args) -> None:
    if args.lam is not None and args.state != "ppt":
        raise ValueError("--lam applies only to --state ppt")
    states.PptFamilyParams(*_parse_lam(args.lam))


def _named_state(name: str, m: criteria.GmeMap,
                 lam: str | None = None) -> PureState | MpOperator | BlockOperator:
    """The named target state on the sites of the map: GHZ as its X-support
    blocks (`states.noisy_ghz`), W as a pure state, the ppt family at --lam
    as a matrix.  Sites the state is not defined on are an error."""
    if name == "ghz":
        return states.noisy_ghz(m.dims.n, m.dims.dims[0], 1.0)
    if name == "w":
        if set(m.dims.dims) != {2}:
            raise ValueError("the w state is defined for qubits")
        return states.w_state(m.dims.n)
    states.check_ppt_dims(m.dims)
    return states.ppt_family(_parse_lam(lam))


def _build_state(args, m: criteria.GmeMap) -> MpOperator | BlockOperator:
    """The state of --state or --state-file: GHZ, noisy GHZ and I/D as their
    X-support blocks, any other as a matrix; a flag the state would not read
    is an error."""
    if not args.state and not args.state_file:
        raise ValueError("either --state or --state-file is required")
    if args.state and args.state_file:
        raise ValueError("give either --state or --state-file, not both")
    if args.noise is not None and args.state not in ("ghz", "w", "ppt"):
        raise ValueError("--noise applies only to --state ghz, w or ppt")
    if args.state_file:
        obj = serialize.load_state(args.state_file)
        m.check_state(obj)  # before a pure state's D x D density is built
        return obj.density() if isinstance(obj, PureState) else obj
    if args.state == "mixed":
        return states.white_noise(m.dims)
    if args.state == "ppt" and args.noise is not None and not 0.0 <= args.noise <= 1.0:
        raise ValueError(f"white-noise fraction must lie in [0, 1], got {args.noise}")
    p = 1.0 if args.noise is None else args.noise
    if args.state == "ghz":
        return states.noisy_ghz(m.dims.n, m.dims.dims[0], p)
    target = _named_state(args.state, m, args.lam)
    if isinstance(target, PureState):
        return states.depolarized(target, p)
    if args.noise:
        mm = states.maximally_mixed(target.dims).mat
        target = MpOperator(target.dims, args.noise * mm + (1 - args.noise) * target.mat)
    return target


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, command: str, m: criteria.GmeMap, state_desc: str) -> dict:
    return {"command": command, "map_id": m.label, "n": m.dims.n, "d": m.dims.dims[0],
            "state": state_desc, "tolerance": args.tol, "seed": getattr(args, "seed", None),
            "samples": getattr(args, "samples", None)}


def _cmd_detect(args) -> int:
    _check_lam(args)  # before the map is built
    m = _build_gme_map(args)
    rho = _build_state(args, m)
    verdict = detect(m, rho, args.tol)
    if args.export_map:
        serialize.save_map(args.export_map, m.expr)
    report = {
        "config": _config(args, "detect", m, args.state or args.state_file or ""),
        "min_eig": verdict.min_eig,
        "detected": verdict.detected,
        "tolerance": verdict.tolerance,
        "eigvec": verdict.eigvec,
    }
    _emit(serialize.dumps_report(report), args.output)
    return 0


def _cmd_threshold(args) -> int:
    _check_lam(args)
    m = _build_gme_map(args)
    target = _named_state(args.state, m, args.lam)
    if args.state == "ppt":
        res = white_noise_threshold(m, target, args.tol)
        kind = "white-noise"
    else:
        res = noise_threshold(m, target, args.tol)
        kind = "visibility"
    report = {
        "config": _config(args, "threshold", m, args.state),
        "kind": kind,
        "p_star": res.p_star,
        "residual": res.residual,
    }
    _emit(serialize.dumps_report(report), args.output)
    return 0


def _parse_grid(text: str) -> list[float]:
    """start:stop:step, inclusive of start, exclusive of stop."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError("--grid expects start:stop:step") from exc
    if not np.isfinite([start, stop, step]).all():
        raise ValueError("--grid values must be finite")
    if step <= 0 or stop <= start:
        raise ValueError("--grid needs step > 0 and stop > start")
    rows = (stop - start) / step
    if not rows <= MAX_GRID_ROWS:  # also false when the quotient overflows to inf
        raise ValueError(f"--grid asks for more than {MAX_GRID_ROWS} rows")
    return [start + i * step for i in range(int(np.ceil(rows - 1e-12)))]


def _cmd_scan(args) -> int:
    grid = _parse_grid(args.grid)
    if args.noise is not None and args.family != "ppt-qutrit":
        raise ValueError("--noise applies only to --family ppt-qutrit")
    m = _build_gme_map(args)
    if args.family == "ppt-qutrit":
        rows = lambda_scan(m, grid, noise=args.noise or 0.0, tol=args.tol)
    else:
        psi = _named_state("ghz" if args.family == "noisy-ghz" else "w", m)
        rows = visibility_scan(m, psi, grid, args.tol)
    _emit(serialize.scan_csv(rows), args.output)
    return 0


def _cmd_mu(args) -> int:
    build, d = _PRIMITIVES[args.primitive]
    d = d if args.d is None else args.d
    criteria.check_local_dim(d)
    if d * d > criteria.MAX_DIM:
        raise ValueError(f"d^2 = {d * d} exceeds the supported maximum {criteria.MAX_DIM}")
    prim = build(d)
    estimate = maps.estimate_mu(prim, d, args.samples, args.seed)
    constant = maps.mu_constant(prim)
    report = {
        "primitive": args.primitive,
        "d": d,
        "samples": args.samples,
        "seed": args.seed,
        "estimate": estimate,
        "constant": constant,
        "within_tolerance": bool(abs(estimate - float(constant)) <= DETECT_TOL),
    }
    _emit(serialize.dumps_report(report), args.output)
    return 0


def _cmd_verify(args) -> int:
    m = _build_gme_map(args)
    report = verify_biseparable_positivity(m, args.samples, seed=args.seed, tol=args.tol)
    _emit(serialize.dumps_report(report), args.output)
    return 0 if report.passed else 1


def witness_expectation(w: MpOperator, rho: MpOperator | BlockOperator) -> float:
    """Re Tr(W rho), contracted entry by entry in O(D^2) over the whole
    matrices (a state given as blocks is scattered), in one order for
    both."""
    return float(np.einsum("ij,ji->", w.mat, whole_matrix(rho)).real)


def _cmd_witness(args) -> int:
    _check_lam(args)
    m = _build_gme_map(args)
    rho = _build_state(args, m)
    verdict = detect(m, rho, args.tol)
    psi = PureState(m.dims, verdict.eigvec)
    w = criteria.map_to_witness(m, psi)
    serialize.save_state(args.output, w)
    summary = {
        "config": _config(args, "witness", m, args.state or args.state_file or ""),
        "min_eig": verdict.min_eig,
        "detected": verdict.detected,
        "witness_expectation": witness_expectation(w, rho),
        "output": args.output,
    }
    sys.stdout.write(serialize.dumps_report(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gme-maps",
        description="Detect genuine multipartite entanglement with lifted positive maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="apply a map to a state and report the verdict")
    _add_map_args(p, with_witness=True)
    _add_state_args(p)
    p.add_argument("--tol", type=float, default=DETECT_TOL)
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.add_argument("--export-map", help="also write the map expression here, as a mapexpr-v4 "
                                        "table of its distinct nodes")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("threshold", help="exact noise threshold of a state family")
    _add_map_args(p)
    p.add_argument("--state", choices=("ghz", "w", "ppt"), default="ghz",
                   help="state family: visibility of ghz or w, white noise on ppt")
    _add_lam_arg(p)
    p.add_argument("--tol", type=float, default=DETECT_TOL)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("scan", help="scan a parameter grid, emitting CSV")
    _add_map_args(p)
    p.add_argument("--family", choices=("ppt-qutrit", "noisy-ghz", "noisy-w"),
                   default="ppt-qutrit")
    p.add_argument("--grid", required=True, help="start:stop:step (stop exclusive)")
    p.add_argument("--noise", type=float, default=None,
                   help="extra white-noise fraction for ppt-qutrit rows (default 0)")
    p.add_argument("--tol", type=float, default=DETECT_TOL)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("mu", help="estimate a primitive's minimal output eigenvalue")
    p.add_argument("--primitive", choices=_PRIMITIVES, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("verify", help="fuzz biseparable positivity of a map")
    _add_map_args(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DETECT_TOL)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", help="export the witness extracted from a detection")
    _add_map_args(p)
    _add_state_args(p)
    p.add_argument("--tol", type=float, default=DETECT_TOL)
    p.add_argument("--output", required=True, help="witness JSON path")
    p.set_defaults(func=_cmd_witness)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing keeps no state in the
    parser, and in-process callers would otherwise rebuild it on every call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if not 0 <= getattr(args, "tol", 0) < np.inf:  # also false for NaN
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
