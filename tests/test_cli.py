"""Command line behaviour: reports, exit codes, reproducibility, round trips."""

import gc
import hashlib
import json
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest

from gme_maps import cli, criteria, grades, maps, serialize, states
from gme_maps.cli import main
from gme_maps.detect import detect
from gme_maps.maps import SchurWith, TraceOuter, compose, identity_map
from gme_maps.operators import MpOperator, SiteDims, scatter_blocks
from gme_maps.serialize import mapexpr_to_json, save_state, state_to_json, write_json
from gme_maps.states import PureState, ghz, maximally_mixed
from helpers import DATA, hermitian_op, rand_density, reference_text, v1_text, v2_text, v3_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_detect_noisy_ghz(capsys):
    code, out, _ = run(capsys, "detect", "--map", "phi-tx", "--n", "3",
                       "--state", "ghz", "--noise", "0.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["detected"] is True
    assert doc["min_eig"] < -1e-9


def test_detect_w_min_eig(capsys):
    code, out, _ = run(capsys, "detect", "--map", "phi-t", "--n", "3", "--state", "w")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_eig"] == pytest.approx(1 - 2 / np.sqrt(3), abs=1e-9)


def test_detect_state_file(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    save_state(str(path), maximally_mixed((2, 2, 2)))
    code, out, _ = run(capsys, "detect", "--map", "phi-tx", "--n", "3",
                       "--state-file", str(path))
    assert code == 0
    assert json.loads(out)["detected"] is False


def test_detect_malformed_state_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "mpop-v1", "dims": [2, 2]}')
    code, _, err = run(capsys, "detect", "--map", "phi-tx", "--n", "3",
                       "--state-file", str(path))
    assert code == 2
    assert "error" in err


STATE_FILE = "<ghz file>"
UNREAD_STATE_FLAGS = {
    "state-and-file": (["--state", "w", "--state-file", STATE_FILE],
                       "give either --state or --state-file, not both"),
    "file-noise": (["--state-file", STATE_FILE, "--noise", "0.1"],
                   "--noise applies only to --state ghz, w or ppt"),
    "mixed-noise": (["--state", "mixed", "--noise", "0.3"],
                    "--noise applies only to --state ghz, w or ppt"),
    "ghz-lam": (["--state", "ghz", "--lam", "0.2"], "--lam applies only to --state ppt"),
    "file-lam": (["--state-file", STATE_FILE, "--lam", "0.2"],
                 "--lam applies only to --state ppt"),
}


@pytest.mark.parametrize("command", ["detect", "witness"])
@pytest.mark.parametrize("case", sorted(UNREAD_STATE_FLAGS))
def test_state_flags_the_state_would_not_read_exit_2(tmp_path, capsys, command, case):
    """detect and witness refuse a state flag the chosen state ignores, and
    write nothing."""
    path = tmp_path / "ghz.json"
    save_state(str(path), ghz(3, 2))
    flags, message = UNREAD_STATE_FLAGS[case]
    flags = [str(path) if f == STATE_FILE else f for f in flags]
    output = tmp_path / "w.json"
    extra = ["--output", str(output)] if command == "witness" else []
    code, out, err = run(capsys, command, "--map", "phi-tx", "--n", "3", *flags, *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not output.exists()


def test_threshold_rejects_lam_outside_ppt(capsys):
    code, out, err = run(capsys, "threshold", "--map", "phi-t", "--n", "3",
                         "--state", "w", "--lam", "0.2")
    assert (code, out, err) == (2, "", "error: --lam applies only to --state ppt\n")


@pytest.mark.parametrize("command", ["detect", "threshold"])
def test_ppt_lam_defaults_to_one_ninth(capsys, command):
    argv = [command, "--map", "mu-choi", "--n", "3", "--d", "3", "--state", "ppt"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == run(capsys, *argv, "--lam", repr(1 / 9))[1]


#: (map flags, named state, message) of a state named on sites it is not defined on
WRONG_SITES = {
    "w-on-qutrits": (["--map", "phi-t", "--n", "3", "--d", "3"], "w",
                     "the w state is defined for qubits"),
    "ppt-on-four-qubits": (["--map", "phi-t", "--n", "4"], "ppt",
                           "the ppt family is a 3-qutrit family (n=3, d=3)"),
}


@pytest.mark.parametrize("command", ["detect", "witness", "threshold", "scan"])
@pytest.mark.parametrize("case", sorted(WRONG_SITES))
def test_named_state_on_wrong_sites_exits_2(tmp_path, capsys, command, case):
    """Every command that names a target state refuses sites the state is not
    defined on with the same message, and writes nothing."""
    map_flags, state, message = WRONG_SITES[case]
    if command == "scan":
        family = {"w": "noisy-w", "ppt": "ppt-qutrit"}[state]
        flags = ["--family", family, "--grid", "0.1:0.5:0.1"]
    else:
        flags = ["--state", state]
    output = tmp_path / "out.json"
    code, out, err = run(capsys, command, *map_flags, *flags, "--output", str(output))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not output.exists()


def _nested(depth):
    """A mapexpr-v1 text whose root is `depth` scale nodes around an identity."""
    text = '{"kind": "identity", "d": 2}'
    for _ in range(depth):
        text = '{"kind": "scale", "r": 1.0, "child": %s}' % text
    return '{"format": "mapexpr-v1", "root": %s}' % text


LEAF = '{"kind": "identity", "d": 8}'


def _ones_with(i, j, value):
    """An 8 x 8 matrix of ones whose (i, j) entry is `value`, so not Hermitian."""
    m = np.ones((8, 8), dtype=complex)
    m[i, j] = value
    return m


@pytest.mark.parametrize("text, words", [
    ("[]", ["JSON object"]),
    ('{"format": "mapexpr-v1", "root": []}', ["JSON object"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "sum", "children": 5}}',
     ["sum", "children"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "scale", "r": [1], "child": %s}}' % LEAF,
     ["scale", "'r'"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "transpose"}}', ["transpose", "'d'"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "lift", "child": %s, "parties": 0, '
     '"dims": [2, 2, 2]}}' % LEAF, ["lift", "parties"]),
    (_nested(100), ["deeper"]),
    (_nested(3000), ["nested too deeply"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "choi", "d": 8, "adjoint": "false"}}',
     ["choi", "'adjoint'"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "transpose", "d": 8.5}}',
     ["transpose", "'d'"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "transpose", "d": "8"}}',
     ["transpose", "'d'"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "identity", "d": 65536}}',
     ["65536", "exceeds"]),
    ('{"format": "mapexpr-v1", "root": {"kind": "lift", "child": {"kind": "conjugate", "u": '
     '{"dim": 2, "entries": [[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}}, '
     '"parties": [0], "dims": [2, 2, 2]}}', ["U must be unitary"]),
], ids=["list-doc", "list-root", "int-children", "list-r", "missing-d", "int-parties",
        "depth-100", "depth-3000", "str-adjoint", "float-d", "str-d", "oversized",
        "nan-conjugate"])
@pytest.mark.parametrize("command", ["detect", "verify"])
def test_malformed_map_file_exits_2(tmp_path, capsys, text, words, command):
    path = tmp_path / "bad.json"
    path.write_text(text)
    extra = ("--state", "mixed") if command == "detect" else ("--samples", "2")
    code, out, err = run(capsys, command, "--map-file", str(path), "--n", "3", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert all(w in err for w in words), err


@pytest.mark.parametrize("text", [
    "[]",
    '{"format": "mpop-v1", "dims": 5, "vector": [[1, 0]]}',
    '{"format": "mpop-v1", "dims": [2], "vector": [[1, 0], 7]}',
    "[" * 3000 + "]" * 3000,
    '{"format": "mpop-v1", "dims": [2.9, 2.2, 2.5], "vector": %s}' % json.dumps(
        [[1.0, 0.0]] + [[0.0, 0.0]] * 7),
    '{"format": "mpop-v1", "vector": [[1, 0]]}',
], ids=["list-doc", "int-dims", "int-pair", "depth-3000", "float-dims", "missing-dims"])
def test_malformed_state_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "detect", "--map", "phi-tx", "--n", "3",
                       "--state-file", str(path))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def _ghz_state_file(path, first):
    """The 3-qubit GHZ vector as a state file, its first entry's real part `first`."""
    cells = [f"[{first}, 0.0]"] + ["[0.0, 0.0]"] * 6 + [f"[{first}, 0.0]".replace("-", "")]
    path.write_text('{"format": "mpop-v1", "dims": [2, 2, 2], "vector": [%s]}' % ", ".join(cells))


@pytest.mark.parametrize("first", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_non_finite_state_vector_exits_2(tmp_path, capsys, first):
    """A NaN or infinite vector entry is refused with its own message before
    the vector is normalised, so numpy warns of nothing."""
    path = tmp_path / "inf.json"
    _ghz_state_file(path, first)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "detect", "--map", "phi-tx", "--n", "3",
                             "--state-file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: vector entries must be finite (no NaN or infinity)\n"
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("bad", ["Infinity", "NaN"])
def test_non_finite_state_matrix_exits_2(tmp_path, capsys, bad):
    """A density matrix with an infinite or NaN entry fails the Hermiticity
    check of `is_density`, and numpy warns of nothing."""
    path = tmp_path / "bad.json"
    cells = [f"[{bad}, 0.0]"] + ["[0.0, 0.0]"] * 62 + ["[1.0, 0.0]"]
    path.write_text('{"format": "mpop-v1", "dims": [2, 2, 2], "matrix": [%s]}' % ", ".join(cells))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "detect", "--map", "phi-tx", "--n", "3",
                             "--state-file", str(path))
    assert (code, out, err) == (2, "", "error: input is not a density matrix\n")
    assert not caught, [str(w.message) for w in caught]


def test_huge_state_vector_is_normalised(tmp_path, capsys):
    """Entries whose squared norm would overflow are scaled down first: the
    GHZ vector times 1e300 is detected as GHZ is, with no warning."""
    path = tmp_path / "huge.json"
    _ghz_state_file(path, "1e300")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "detect", "--map", "phi-tx", "--n", "3",
                           "--state-file", str(path))
    assert code == 0 and not caught
    assert json.loads(out)["min_eig"] == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("first", ["1e-170", "5e-324"])
def test_tiny_state_vector_is_normalised(tmp_path, capsys, first):
    """Entries whose squared norm would underflow to zero are scaled up first:
    the GHZ vector times 1e-170, or at the least subnormal, is detected as GHZ
    is, with no warning."""
    path = tmp_path / "tiny.json"
    cells = [f"[{first}, 0.0]"] + ["[0.0, 0.0]"] * 6 + [f"[{first}, 0.0]"]
    path.write_text('{"format": "mpop-v1", "dims": [2, 2, 2], "vector": [%s]}' % ", ".join(cells))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "detect", "--map", "phi-tx", "--n", "3",
                           "--state-file", str(path))
    assert code == 0 and not caught
    assert json.loads(out)["min_eig"] == pytest.approx(-0.5, abs=1e-12)


def test_map_file_shared_node_checked_once(tmp_path, capsys, monkeypatch):
    """Equal subtrees of a map file load as one node, so its mask is checked once."""
    mask = SchurWith(np.ones((8, 8)))
    path = tmp_path / "shared.json"
    write_json(str(path), mapexpr_to_json(maps.map_sum(mask, compose(identity_map(8), mask))))
    checked = []

    def counting(a):
        checked.append(a)
        return True

    monkeypatch.setattr(cli, "is_hermitian", counting)
    code, _, _ = run(capsys, "detect", "--map-file", str(path), "--n", "3", "--state", "w")
    assert code == 0 and len(checked) == 1


@pytest.mark.parametrize("kind, expr, field", [
    ("schur", SchurWith(_ones_with(1, 2, 2.0)), "mask"),
    ("trace-outer", compose(identity_map(8), TraceOuter(_ones_with(0, 3, 1j), np.eye(8))),
     "weight"),
    ("trace-outer", compose(TraceOuter(np.eye(8), _ones_with(5, 4, -1.0)), identity_map(8)),
     "output"),
], ids=["schur-mask", "trace-outer-weight", "trace-outer-output"])
def test_non_hermitian_map_file_exits_2(tmp_path, capsys, kind, expr, field):
    path = tmp_path / "bad.json"
    write_json(str(path), mapexpr_to_json(expr))
    code, out, err = run(capsys, "detect", "--map-file", str(path), "--n", "3",
                         "--state", "w")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert str(path) in err and f"{kind} node" in err and f"non-Hermitian {field}" in err
    # the same node built in memory still evaluates
    assert maps.apply(expr, states.w_state(3).density()).d == 8


@pytest.mark.parametrize("kind, fields", [
    ("conjugate", ("u",)), ("schur", ("mask",)), ("trace-outer", ("weight", "output")),
])
def test_zero_size_map_file_node_exits_2(tmp_path, capsys, kind, fields):
    """A 0x0 array is refused when its node is built, not by numpy later."""
    path = tmp_path / "empty.json"
    root = {"kind": kind, **{f: {"dim": 0, "entries": []} for f in fields}}
    write_json(str(path), {"format": "mapexpr-v1", "root": root})
    code, out, err = run(capsys, "detect", "--map-file", str(path), "--n", "3", "--state", "w")
    assert code == 2 and out == ""
    assert err == "error: map dimension must be >= 1, got 0\n"


@pytest.mark.parametrize("dim, words", [(-1, "dim -1 does not match 1 entries"),
                                         (3, "dim 3 does not match 1 entries"),
                                         (1025, "1050625 entries exceed the supported "
                                                "maximum 1048576")])
def test_map_file_dim_off_its_entries_exits_2(tmp_path, capsys, dim, words):
    """A "dim" that does not square to the entry count is refused by name,
    not by numpy's reshape."""
    path = tmp_path / "mask.json"
    root = {"kind": "schur", "mask": {"dim": dim, "entries": [[1.0, 0.0]]}}
    write_json(str(path), {"format": "mapexpr-v1", "root": root})
    code, out, err = run(capsys, "detect", "--map-file", str(path), "--n", "3", "--state", "w")
    assert code == 2 and out == ""
    assert err == f"error: schur node: bad field 'mask': {words}\n"


@pytest.mark.parametrize("dim, runs, words", [
    (2, "[2.0, 2]", "run counts must be integers, got 2.0"),
    (2, "[true, 3]", "run counts must be integers, got True"),
    (2, "[0, 4]", "run counts must be >= 1, got 0"),
    (2, "[-1, 5]", "run counts must be >= 1, got -1"),
    (2, "[4]", "1 run counts for 2 pairs"),
    (2, "[1, 2]", "run counts sum to 3, not 4"),
    (2, '"4"', "runs must be a list, got str"),
    (40000, "[1, 1599999999]", "1600000000 entries exceed the supported maximum 1048576"),
], ids=["float", "bool", "zero", "negative", "length", "sum", "string", "huge"])
def test_map_file_hostile_runs_exit_2(tmp_path, capsys, dim, runs, words):
    """A "runs" list is checked before any entry is repeated: a huge run is
    refused by the size bound at once, without allocating it."""
    path = tmp_path / "runs.json"
    path.write_text('{"format": "mapexpr-v2", "root": {"kind": "schur", "mask": {"dim": %d, '
                    '"entries": [[1.0, 0.0], [0.0, 0.0]], "runs": %s}}}' % (dim, runs))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "detect", "--map-file", str(path), "--n", "1",
                             "--d", "2", "--state", "mixed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: schur node: bad field 'mask': {words}\n")
    assert peak < 1 << 20


def test_state_file_hostile_runs_exit_2(tmp_path, capsys):
    """A state file's runs are bounded by the size its dims declare: a
    2^30-entry vector of one run is refused before it is built."""
    path = tmp_path / "runs.json"
    path.write_text('{"format": "mpop-v2", "dims": [%s], "vector": [[1.0, 0.0]], '
                    '"runs": [1073741824]}' % ", ".join(["2"] * 30))
    code, out, err = run(capsys, "detect", "--map", "eta", "--state-file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 1073741824 entries exceed the supported maximum 1048576\n"


def test_state_file_runs_less_vector_over_the_bound_exits_2(tmp_path, capsys):
    """The size bound holds without "runs" too: a 21-qubit vector of one pair
    is refused by the size its dims declare, not by its length."""
    path = tmp_path / "vec.json"
    path.write_text('{"format": "mpop-v2", "dims": [%s], "vector": [[1.0, 0.0]]}'
                    % ", ".join(["2"] * 21))
    code, out, err = run(capsys, "detect", "--map", "eta", "--state-file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 2097152 entries exceed the supported maximum 1048576\n"


def test_map_file_lift_of_a_lift_takes_the_outer_sites(tmp_path, capsys):
    """The sites of a map file are those of its outermost lifts; a lift inside
    one acts on the subsystem's sites."""
    inner = maps.lift(maps.transpose_map(2), (0,), (2, 2))
    expr = maps.map_sum(maps.lift(inner, (0, 1), (2, 2, 2)), maps.trace_identity(1, 8))
    path = tmp_path / "nested.json"
    serialize.save_map(str(path), expr)
    code, out, _ = run(capsys, "detect", "--map-file", str(path), "--state", "ghz")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["n"], config["d"]) == (3, 2)
    code, _, err = run(capsys, "detect", "--map-file", str(path), "--n", "2", "--state", "ghz")
    assert code == 2
    assert err == "error: --n/--d disagree with the sites (2, 2, 2) of the map file\n"


def test_files_decode_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    """Map, state and witness files are parsed and decoded with the cyclic
    garbage collector paused, and its state is restored after, also when the
    read fails or the collector was off before."""
    seen = []
    for name in ("mapexpr_from_json", "state_from_json"):
        decode = getattr(serialize, name)
        monkeypatch.setattr(serialize, name,
                            lambda doc, f=decode: seen.append(gc.isenabled()) or f(doc))
    mpath, wpath = tmp_path / "m.json", tmp_path / "w.json"
    assert run(capsys, "detect", "--map", "eta", "--n", "3", "--state", "ghz",
               "--export-map", str(mpath))[0] == 0
    assert run(capsys, "witness", "--map", "eta", "--n", "3", "--state", "ghz",
               "--output", str(wpath))[0] == 0
    save_state(str(tmp_path / "s.json"), ghz(3))
    assert run(capsys, "detect", "--map-file", str(mpath), "--state-file",
               str(tmp_path / "s.json"))[0] == 0
    assert run(capsys, "detect", "--witness-file", str(wpath), "--state", "ghz")[0] == 0
    assert seen == [False, False, False] and gc.isenabled()
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    assert run(capsys, "detect", "--map-file", str(tmp_path / "deep.json"), "--state", "ghz")[0] == 2
    assert gc.isenabled()
    gc.disable()
    try:
        assert run(capsys, "detect", "--witness-file", str(wpath), "--state", "ghz")[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", ["detect", "witness"])
def test_state_file_sites_checked_before_density(tmp_path, capsys, monkeypatch, command):
    """A pure state on other sites than the map's is refused before its
    D x D density is built (at n = 16 that alone is 32 GB)."""
    path = tmp_path / "psi.json"
    save_state(str(path), ghz(11))

    def no_density(self):
        raise AssertionError("density built before the sites were checked")

    monkeypatch.setattr(PureState, "density", no_density)
    code, out, err = run(capsys, command, "--map", "eta", "--n", "3", "--state-file", str(path),
                         "--output", str(tmp_path / "out.json"))
    assert code == 2 and out == ""
    assert err == f"error: state dims {(2,) * 11} do not match map dims (2, 2, 2)\n"
    assert not (tmp_path / "out.json").exists()


def test_overflowing_witness_file_exits_2_without_warning(tmp_path, capsys):
    """Entries of +-1e308 overflow m - m^dag; the verdict comes without a
    RuntimeWarning, also with warnings as errors."""
    rng = np.random.default_rng(58)
    path = tmp_path / "w.json"
    save_state(str(path), MpOperator(SiteDims((2, 2, 2)), 1e308 * rng.choice([-1.0, 1.0], (8, 8))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "detect", "--witness-file", str(path), "--state", "ghz")
    assert code == 2 and out == ""
    assert err == "error: witness must be Hermitian\n"


def test_cached_parser_keeps_no_state(capsys):
    """In-process calls that alternate subcommands and flags print what a fresh
    parser prints for each, and no flag value carries over to the next call."""
    calls = [
        ["detect", "--map", "phi-t", "--n", "4", "--state", "ghz", "--noise", "0.9"],
        ["threshold", "--map", "eta", "--n", "3", "--state", "ghz"],
        ["detect", "--map", "phi-t", "--state", "w"],
        ["scan", "--map", "eta", "--family", "noisy-ghz", "--grid", "0.4:0.5:0.05"],
        ["detect", "--map", "mu-choi", "--state", "ghz", "--tol", "1e-6"],
        ["detect", "--map", "phi-t", "--state", "ghz"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cached = [run(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert cli._parser() is cli._parser()
    after_n4, after_tol = json.loads(cached[2][1]), json.loads(cached[5][1])
    assert after_n4["config"]["n"] == 3 and after_n4["config"]["state"] == "w"
    assert after_tol["config"]["tolerance"] == cli.DETECT_TOL
    assert after_tol["config"]["map_id"] == "phi-t"


def test_detect_report_keeps_complex_eigvec(capsys):
    """A real problem takes the real eigensolver, yet the report still writes
    the eigenvector as [re, im] pairs."""
    code, out, _ = run(capsys, "detect", "--map", "phi-tx", "--n", "3", "--state", "ghz")
    assert code == 0
    vec = json.loads(out)["eigvec"]
    assert len(vec) == 8 and all(len(e) == 2 and e[1] == 0.0 for e in vec)
    assert abs(np.linalg.norm([e[0] for e in vec]) - 1) <= 1e-12


def test_witness_expectation_matches_trace_of_product():
    rng = np.random.default_rng(4)
    for dims in ((2, 2, 2), (3, 3, 3)):
        w = hermitian_op(dims, rng)
        rho = MpOperator(SiteDims(dims), rand_density(w.d, rng))
        want = np.trace(w.mat @ rho.mat).real
        assert abs(cli.witness_expectation(w, rho) - want) <= 1e-12


@pytest.mark.parametrize("map_id, n, d", [("eta", 8, 2), ("mu-choi", 5, 3), ("phi-tx", 8, 2),
                                          ("phi-r", 5, 3), ("phi-b", 4, 4)])
def test_witness_expectation_of_blocks_is_its_matrix(map_id, n, d):
    """Tr(W rho) of a state given as X-support blocks is the one of its
    scattered matrix, bit for bit, so the `witness` report does not depend on
    the form the state comes in."""
    m = criteria.build_map(map_id, n, d)
    rho = states.noisy_ghz(n, d, 0.7)
    w = criteria.map_to_witness(m, PureState(m.dims, detect(m, rho).eigvec))
    matrix = MpOperator(rho.dims, scatter_blocks(rho.index, rho.blocks, rho.dims.total))
    got, want = cli.witness_expectation(w, rho), cli.witness_expectation(w, matrix)
    assert got.hex() == want.hex()


@pytest.mark.parametrize("noise", [None, "0.9"])
def test_ghz_at_1024_levels_builds_no_dense_state(capsys, monkeypatch, noise):
    """GHZ and noisy GHZ enter phi-tx (10) as X-support blocks: no D x D
    density is built, no count of the input's nonzero entries runs
    (`SupportForm.holds`), and the run's traced peak stays below one real
    1024 x 1024 array.  min_eig is -1/2 on GHZ, and at p = 0.9 the dense
    state's value, bit for bit."""
    m = criteria.build_map("phi-tx", 10, 2)
    want = -0.5 if noise is None else detect(m, states.depolarized(ghz(10), float(noise))).min_eig

    def dense_work(*_):
        raise AssertionError("dense work on a GHZ-type input")

    monkeypatch.setattr(maps.SupportForm, "holds", dense_work)
    monkeypatch.setattr(PureState, "density", dense_work)
    argv = ["detect", "--map", "phi-tx", "--n", "10", "--state", "ghz"]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, *([] if noise is None else ["--noise", noise]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    got = json.loads(out)["min_eig"]
    assert abs(got - want) <= 1e-12 if noise is None else got == want
    assert peak < 8 * 1024 ** 2


def test_invalid_map_combo_exits_2(capsys):
    code, _, err = run(capsys, "detect", "--map", "mu-choi", "--n", "3", "--d", "2",
                       "--state", "ghz")
    assert code == 2
    assert "mu-choi" in err
    code, _, err = run(capsys, "detect", "--map", "phi-b", "--n", "3", "--d", "5",
                       "--state", "ghz")
    assert code == 2


def test_threshold_eta(capsys):
    code, out, _ = run(capsys, "threshold", "--map", "eta", "--n", "3",
                       "--state", "ghz", "--tol", "1e-9")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_star"] == pytest.approx(3 / 7, abs=1e-6)
    assert doc["kind"] == "visibility"
    assert set(doc) == {"config", "kind", "p_star", "residual"}


def test_threshold_ppt_white_noise(capsys):
    code, out, _ = run(capsys, "threshold", "--map", "mu-choi", "--n", "3", "--d", "3",
                       "--state", "ppt", "--lam", str(1 / 9))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "white-noise"
    assert doc["p_star"] == pytest.approx(9 / 179, abs=1e-5)


@pytest.mark.parametrize("flags", [["--state", "mixed"], ["--state-file", "/nonexistent"],
                                   ["--noise", "0.5"]], ids=["mixed", "state-file", "noise"])
def test_threshold_rejects_flags_it_does_not_read(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--map", "phi-t", "--n", "3", *flags])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert flags[0] in out.err


def test_threshold_defaults_to_ghz(capsys):
    code, out, _ = run(capsys, "threshold", "--map", "eta", "--n", "3")
    assert code == 0
    assert out == run(capsys, "threshold", "--map", "eta", "--n", "3", "--state", "ghz")[1]
    assert json.loads(out)["config"]["state"] == "ghz"


def test_d_defaults_to_the_smallest_the_map_allows(capsys):
    code, out, _ = run(capsys, "detect", "--map", "phi-b", "--n", "3", "--state", "ghz")
    assert code == 0
    assert out == run(capsys, "detect", "--map", "phi-b", "--n", "3", "--d", "4",
                      "--state", "ghz")[1]
    assert json.loads(out)["config"]["d"] == 4


def test_mu_reduction(capsys):
    code, out, _ = run(capsys, "mu", "--primitive", "reduction", "--d", "4",
                       "--samples", "200", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == pytest.approx(0.25, abs=1e-9)
    assert doc["within_tolerance"] is True


def test_scan_csv_and_reproducibility(tmp_path, capsys):
    args = ("scan", "--map", "mu-choi", "--n", "3", "--d", "3",
            "--family", "ppt-qutrit", "--grid", "0.30:0.40:0.04")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "param,min_eig,detected"
    assert len(lines) == 4  # grid 0.30, 0.34, 0.38; stop exclusive
    assert lines[1].endswith("true") and lines[2].endswith("false")
    code, out2, _ = run(capsys, *args)
    assert out2 == out1


def test_scan_grid_validation(capsys):
    code, _, err = run(capsys, "scan", "--map", "mu-choi", "--n", "3", "--d", "3",
                       "--grid", "0.5:0.1:0.1")
    assert code == 2


@pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:0.1", "0:1:nan", "-inf:0:1",
                                  "0:1:1e-12", "0:1e308:1e-308", "-1e308:1e308:1"])
def test_scan_grid_rejects_unbounded_and_non_finite(capsys, grid):
    code, out, err = run(capsys, "scan", "--map", "mu-choi", "--n", "3", "--d", "3",
                         f"--grid={grid}")
    assert code == 2 and out == ""
    assert err.startswith("error: --grid")


def test_scan_grid_row_limit_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="rows"):
            cli._parse_grid("0:1:1e-12")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert len(cli._parse_grid(f"0:{cli.MAX_GRID_ROWS}:1")) == cli.MAX_GRID_ROWS


@pytest.mark.parametrize("noise", ["5", "-3"])
def test_scan_rejects_noise_outside_unit_interval(capsys, noise):
    code, out, err = run(capsys, "scan", "--map", "mu-choi", "--n", "3", "--d", "3",
                         "--family", "ppt-qutrit", "--grid", "0.1:0.3:0.1", "--noise", noise)
    assert code == 2 and out == ""
    assert "must lie in [0, 1]" in err


@pytest.mark.parametrize("noise", ["1.5", "-0.5"])
def test_detect_rejects_ppt_noise_outside_unit_interval(capsys, noise):
    """The white-noise fraction on the PPT state is checked as `scan` checks
    it, before a state is built: 1.5 would still mix to a density matrix."""
    code, out, err = run(capsys, "detect", "--map", "mu-choi", "--n", "3", "--d", "3",
                         "--state", "ppt", "--noise", noise)
    assert code == 2 and out == ""
    assert err == f"error: white-noise fraction must lie in [0, 1], got {float(noise)}\n"


@pytest.mark.parametrize("family", ["noisy-ghz", "noisy-w"])
def test_scan_noise_only_for_ppt_family(capsys, family):
    code, out, err = run(capsys, "scan", "--map", "phi-t", "--n", "3", "--family", family,
                         "--grid", "0.4:0.5:0.05", "--noise", "0.9")
    assert code == 2 and out == ""
    assert err == "error: --noise applies only to --family ppt-qutrit\n"


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--map", "phi-tx", "--n", "3",
                       "--samples", "40", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_over_samples"] >= -1e-9
    assert doc["violations"] == []


def test_map_file_roundtrip(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    code, out1, _ = run(capsys, "detect", "--map", "eta", "--n", "3",
                        "--state", "ghz", "--noise", "0.5",
                        "--export-map", str(mpath))
    assert code == 0
    doc1 = json.loads(out1)
    code, out2, _ = run(capsys, "detect", "--map-file", str(mpath), "--n", "3",
                        "--state", "ghz", "--noise", "0.5")
    assert code == 0
    doc2 = json.loads(out2)
    assert doc2["detected"] == doc1["detected"] is True
    assert doc2["min_eig"] == pytest.approx(doc1["min_eig"], abs=1e-12)


def test_verify_same_seed_same_report(capsys):
    args = ("verify", "--map", "phi-tx", "--n", "3", "--samples", "40", "--seed", "3")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out2 == out1
    assert set(json.loads(out1)) == {"map_id", "samples", "seed", "tolerance",
                                     "min_over_samples", "worst_index", "worst_seed",
                                     "violations"}


def _float_kernels_fingerprint() -> str:
    """sha256 of the bits of the float kernels a `verify` report rests on:
    eigenvalue-only solves at the block sides of the smallest catalog maps,
    real and complex, and the norms of complex vectors."""
    rng = np.random.default_rng(0)
    parts = []
    for k in (2, 3, 8, 27, 64):
        h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        parts += [np.linalg.eigvalsh(h + h.conj().T), np.linalg.eigvalsh(h.real + h.real.T)]
    for k in (2, 4, 8, 16, 32, 64):
        parts.append(np.linalg.norm(rng.standard_normal(k) + 1j * rng.standard_normal(k)))
    return hashlib.sha256(b"".join(np.asarray(p).tobytes() for p in parts)).hexdigest()


# sha256 of `verify` stdout, seed 0 and 40 samples, for each catalog map at
# its smallest size and for phi-t (3) with the compensation 999/1000 read from
# a map file, with the exit code.  Recorded before `verify` screened its
# samples by Cholesky, when every sample took an eigensolve.  The reports
# print eigenvalues of random outputs, whose last bits depend on the LAPACK
# and BLAS build, so the pins are compared where those kernels round as on
# the recording build (`_float_kernels_fingerprint`); the screen's agreement
# with an eigensolve of every sample is checked on any build by
# test_detect.py::test_screened_verify_matches_unscreened_property.
VERIFY_SHA256 = {
    "phi-t": (0, "5945f338d48167f1df6200f1a06244fda0e0810c39d7f72115108424b3d2c099"),
    "phi-tx": (0, "f8c077713fe1dd9c8c47a1bc456b5e5d95860ce23c278fc3a3eacb467e12430d"),
    "eta": (0, "85cc4ded08d7030341ad1e237e3a5515ff417062c4566e293d7dac340f8f7f99"),
    "phi-r": (0, "943a4cfaaa4cf371c0b053af7c30f2ee13d9ae0afaf73aec55bb2904a69ce354"),
    "phi-b": (0, "2eb5306366b6637b097f72236721f068cac08352c440e6e0866ec1ba1787c92c"),
    "mu-choi": (0, "af07e5e19d38b47926c368205cf34a84140afdf5bfdbb53c48e1b80eee27a82a"),
    "phi-t-undersized": (1, "55c6c265c1d11c58ef1a922d9030879c43d925ea985f6f9e6b8199a71a7ab184"),
}
FLOAT_KERNELS_SHA256 = "25e1952f58457545fbb4de85be18b7bf0e0224c324c968c485516a798971947a"


@pytest.mark.parametrize("case", sorted(VERIFY_SHA256))
def test_verify_stdout_pinned(tmp_path, capsys, case):
    if _float_kernels_fingerprint() != FLOAT_KERNELS_SHA256:
        pytest.skip("the pins were recorded on a LAPACK and BLAS build that rounds otherwise")
    if case == "phi-t-undersized":
        dims = (2, 2, 2)
        lifts = [maps.lift(maps.transpose_map(2 ** len(a)), a, dims)
                 for a in criteria.bipartitions(3)]
        path = tmp_path / "m.json"
        serialize.save_map(str(path), maps.map_sum(*lifts, maps.trace_identity(
            Fraction(999, 1000), 8)))
        argv = ("--map-file", str(path), "--n", "3")
    else:
        n, d = criteria.SMALLEST[case]
        argv = ("--map", case, "--n", str(n), "--d", str(d))
    code, out, _ = run(capsys, "verify", *argv, "--samples", "40", "--seed", "0")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_SHA256[case]


def test_witness_roundtrip_sign(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    code, out, _ = run(capsys, "witness", "--map", "phi-tx", "--n", "3",
                       "--state", "ghz", "--output", str(wpath))
    assert code == 0
    doc = json.loads(out)
    assert doc["detected"] is True
    assert doc["witness_expectation"] == pytest.approx(doc["min_eig"], abs=1e-9)

    code, out, _ = run(capsys, "detect", "--witness-file", str(wpath),
                       "--state", "ghz", "--n", "3")
    assert code == 0
    redetect = json.loads(out)
    assert redetect["detected"] is True
    assert redetect["min_eig"] == pytest.approx(doc["min_eig"], abs=1e-9)


# sha256 of the file `detect --export-map` writes, and of the witness file for
# the GHZ vector as `witness --output` writes it, at each map's smallest size.
# The CLI's own witness comes from an eigensolver's eigenvector, whose last
# bits depend on the LAPACK build, so the witness is pinned on the exact vector.
# The eta and mu-choi witnesses go through the closed form on the X support
# (`maps.MapExpr.support`), which folds the tree's scalars before it touches
# the data: each of mu-choi's twelve nonzero diagonal entries is one rounding
# of 3 * <000|rho|000> = 1.00000000000000028, 1.0000000000000002, where summing
# the tree's terms one by one gave 1.0000000000000004.  The zero off-diagonal
# support entries are written as 0.0, not as the -0.0 that -3 * 0.0 gives.
# The v1 pins are of the files the v1 writer wrote, every entry spelled out
# (`helpers.v1_text` of the written file), the map file v2 pins of the files
# the v2 writer wrote, every node nested in its parent (`helpers.v2_text` of
# the v3 file), and the map file v3 pins of the files the v3 writer wrote,
# each lift an entry of its own (`helpers.v3_text` of the v4 file), committed
# as tests/data/<id>-<n>-<d>-v3.json; all still read to the same outputs.
EXPORT_SHA256_V1 = {
    "phi-tx": "c7fa55220fc52490286a9448d24c2b5fa61aa1c53c19a563d4b8b5ed14920e50",
    "eta": "615fdd863a5f478592bfcb7a18bb62f59daee96bdcada8135a6f3c5d4912e216",
    "mu-choi": "fd86d64ebe86dd1b90a462d76a291cdad98f15f0969cedf01026d3d917af3750",
}
WITNESS_SHA256_V1 = {
    "phi-tx": "c6db874cded02766a379d1f1067f126760c0a7581b7d131bd2c1315a01dcdbf0",
    "eta": "284a4e3f9b2729a9697634c6d2d377c30ad64a531f07d7732432a7005756cdaf",
    "mu-choi": "3bcec56c989b5c50cc938b591787d863c32afb00fb7b3747d38dfd59ed1758b2",
}
EXPORT_SHA256_V2 = {
    "phi-tx": "38dea5c8ebce6cddb6accef2ddad1a4335989bcafe5d5aebec63a620f6b3645d",
    "eta": "e84e09614967c57ae3291c539a169cdfaf40f025f933d53ec79b8d86ba5f6dc2",
    "mu-choi": "22f180463a30d7c89dd2807405016fd18e5f58b6bb7492500b975420f8a71082",
}
EXPORT_SHA256_V3 = {
    "phi-tx": "f32f9547533c6e008adcaf38476102affb85e67d5adad8ff9e156c0f0033e2b9",
    "eta": "921d5a46ffb7f8b60bdc56ed72b4513e060750eb6f3356a000069af4e7a83ac7",
    "mu-choi": "1dfd83940e526321ab98a725f422aa55a5f4b0a1473d82e458877206cb4764d9",
}
EXPORT_SHA256 = {
    "phi-tx": "58ec9f1d3c693f4fc7524fb877c657d70ce6d7b1028b3df957a4ebb09f2c92eb",
    "eta": "addee80be311ba467e3ffcc6626fb1078f7383361749adc1d325263dd5b88f86",
    "mu-choi": "ccb8895ae511dbfe182d2d5ed83957e783b7c75037fc5f2e34320c9d0fd7c5cd",
}
WITNESS_SHA256 = {
    "phi-tx": "e6f66b0efdb729e73941dc9e72eda29daf21e502179dba29c4ac00020dd61eb0",
    "eta": "7fbddca3540c4194e19338a723ec29824023b2ccd906aa23a676d0aea0f956cd",
    "mu-choi": "aff23e3cff09e3d2e396c415c62ab5f6bb829d8c427748483f017e52960d095c",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("map_id", sorted(EXPORT_SHA256))
def test_written_files_pinned(tmp_path, capsys, map_id):
    """The map and witness files are pinned as written and in their older
    forms, the v3 one committed; those read to the same map and witness, bit
    for bit."""
    n, d = criteria.SMALLEST[map_id]
    mpath, v3_mpath = tmp_path / "m.json", DATA / f"{map_id}-{n}-{d}-v3.json"
    v2_mpath, old_mpath = tmp_path / "m2.json", tmp_path / "m1.json"
    code, _, _ = run(capsys, "detect", "--map", map_id, "--n", str(n), "--d", str(d),
                     "--state", "ghz", "--export-map", str(mpath))
    assert code == 0
    assert v3_text(mpath.read_text()) == v3_mpath.read_text()
    v2_mpath.write_text(v2_text(v3_mpath.read_text()))
    old_mpath.write_text(v1_text(v3_mpath.read_text()))
    assert (_sha256(mpath), _sha256(v3_mpath), _sha256(v2_mpath), _sha256(old_mpath)) == (
        EXPORT_SHA256[map_id], EXPORT_SHA256_V3[map_id], EXPORT_SHA256_V2[map_id],
        EXPORT_SHA256_V1[map_id])
    reports = [run(capsys, "detect", "--map-file", str(p), "--state", "ghz")
               for p in (mpath, v3_mpath, v2_mpath, old_mpath)]
    assert reports[0] == reports[1] == reports[2] == reports[3] and reports[0][0] == 0
    wpath, old_wpath = tmp_path / "w.json", tmp_path / "w1.json"
    w = criteria.map_to_witness(criteria.build_map(map_id, n, d), ghz(n, d))
    save_state(str(wpath), w)
    old_wpath.write_text(v1_text(wpath.read_text()))
    assert (_sha256(wpath), _sha256(old_wpath)) == (WITNESS_SHA256[map_id],
                                                    WITNESS_SHA256_V1[map_id])
    for p in (wpath, old_wpath):
        back = serialize.load_state(str(p))
        assert back.mat.dtype == w.mat.dtype and back.mat.tobytes() == w.mat.tobytes()
    reports = [run(capsys, "detect", "--witness-file", str(p), "--state", "ghz")
               for p in (wpath, old_wpath)]
    assert reports[0] == reports[1] and reports[0][0] == 0


# Every catalog map at the sizes of the detect-scaled benchmark, D = 128..256.
SCALED = (("eta", 7, 2), ("eta", 8, 2), ("phi-tx", 8, 2), ("phi-t", 8, 2),
          ("phi-r", 5, 3), ("phi-b", 4, 4), ("mu-choi", 5, 3))


@pytest.mark.parametrize("map_id, n, d", sorted((k, n, d) for k, (n, d) in
                                                 criteria.SMALLEST.items()) + list(SCALED))
def test_catalog_tables_round_trip(tmp_path, capsys, map_id, n, d):
    """Every catalog map at its smallest size and at the detect-scaled sizes
    reads back from its exported table with the same distinct nodes (20
    for eta at n = 8), one table entry each, and bit-identical outputs."""
    path = tmp_path / "m.json"
    assert run(capsys, "detect", "--map", map_id, "--n", str(n), "--d", str(d),
               "--state", "ghz", "--export-map", str(path))[0] == 0
    m = criteria.build_map(map_id, n, d).expr
    back = serialize.mapexpr_from_json(json.loads(path.read_text()))
    count = len(list(maps.nodes(m)))
    assert len(list(maps.nodes(back))) == len(json.loads(path.read_text())["nodes"]) == count
    assert (map_id, n) != ("eta", 8) or count == 20
    stack = np.random.default_rng(29).standard_normal((2, m.dim, m.dim))
    stack = stack + 1j * np.random.default_rng(30).standard_normal(stack.shape)
    for x in (stack, stack.real.copy()):
        assert maps.apply_stack(back, x).tobytes() == maps.apply_stack(m, x).tobytes()


def _table(*entries):
    return json.dumps({"format": "mapexpr-v3", "nodes": list(entries)})


IDENTITY2 = {"kind": "identity", "d": 2}


@pytest.mark.parametrize("text, message", [
    (_table(IDENTITY2, {"kind": "sum", "children": [0, 2]}, IDENTITY2),
     "map node 1: child 2 is not an earlier entry"),
    (_table({"kind": "scale", "r": 1.0, "child": 0}),
     "map node 0: child 0 is not an earlier entry"),
    (_table(IDENTITY2, {"kind": "scale", "r": 1.0, "child": -1}),
     "map node 1: child -1 is not an earlier entry"),
    (_table(IDENTITY2, {"kind": "scale", "r": 1.0, "child": True}),
     "map node 1: a child must be an entry index, got True"),
    (_table(IDENTITY2, {"kind": "sum", "children": [0, 1.0]}),
     "map node 1: a child must be an entry index, got 1.0"),
    (_table(IDENTITY2, {"kind": "compose", "outer": 0, "inner": IDENTITY2}),
     "map node 1: a child must be an entry index, got {'kind': 'identity', 'd': 2}"),
    (_table(IDENTITY2, {"kind": "sum", "children": 0}), "sum node: field 'children' must be a list"),
    ('{"format": "mapexpr-v3", "nodes": {"0": {"kind": "identity", "d": 2}}}',
     "mapexpr-v3 document: 'nodes' must be a list, got dict"),
    ('{"format": "mapexpr-v3", "root": {"kind": "identity", "d": 2}}',
     "mapexpr-v3 document: 'nodes' must be a list, got NoneType"),
    ('{"format": "mapexpr-v3", "nodes": []}', "mapexpr-v3 document: 'nodes' is empty"),
    (_table(IDENTITY2, 5), "map node must be a JSON object, got int"),
    (_table(IDENTITY2, *[{"kind": "sum", "children": [k, k]} for k in range(40)]),
     "map tree has more than 32768 nodes"),
    (_table(IDENTITY2, *[{"kind": "compose", "outer": 0, "inner": k} for k in range(64)]),
     "map tree is deeper than 64 levels"),
    (_table(*[IDENTITY2] * 32769), "map tree has more than 32768 nodes"),
], ids=["forward", "self", "negative", "true-index", "float-index", "nested-node",
        "int-children", "dict-nodes", "no-nodes", "empty-nodes", "int-entry", "doubling-40",
        "compose-65", "long-table"])
def test_hostile_node_table_exits_2(tmp_path, capsys, monkeypatch, text, message):
    """A mapexpr-v3 table with a child that is not an earlier entry, no entry
    list, or an expanded tree past a bound (a shared subtree counted at each
    occurrence, as evaluation walks it) exits 2 with its own message, and no
    map is evaluated."""
    path = tmp_path / "t.json"
    path.write_text(text)
    monkeypatch.setattr(maps, "_eval", lambda *_: pytest.fail("a map was evaluated"))
    code, out, err = run(capsys, "detect", "--map-file", str(path), "--n", "1", "--d", "2",
                         "--state", "mixed")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _side_lifts_table(n, dims_of_child, format="mapexpr-v4"):
    """A table of one transposition per side size, of the given dimensions,
    lifted onto every bipartition side of n qubits by one side-lifts entry."""
    children = [{"kind": "transpose", "d": dims_of_child(k)} for k in range(1, n // 2 + 1)]
    side = {"kind": "side-lifts", "children": list(range(len(children))), "dims": [2] * n}
    return json.dumps({"format": format, "nodes": children + [side]})


@pytest.mark.parametrize("text, message", [
    (_side_lifts_table(4, lambda k: 2), "child 2 dimension 2 does not match the size 4 of a side "
                                        "of 2 sites"),
    (json.dumps({"format": "mapexpr-v4", "nodes": [
        {"kind": "transpose", "d": 2},
        {"kind": "side-lifts", "children": [0], "dims": [2, 2, 2, 2]}]}),
     "side lifts on 4 sites need 2 children, one per side size, got 1"),
    (_side_lifts_table(60, lambda k: 2 ** k), "map tree has more than 32768 nodes"),
    (_side_lifts_table(4, lambda k: 2 ** k, "mapexpr-v3"), "unknown map node kind 'side-lifts'"),
], ids=["child-dimension", "child-count", "60-sites", "in-v3"])
def test_hostile_side_lifts_exit_2(tmp_path, capsys, monkeypatch, text, message):
    """A side-lifts entry with a child of the wrong dimension, a child count
    other than n // 2, or 60 sites (2^59 - 1 lifts, refused by the expanded
    node count at once, with no side listed), or one in a mapexpr-v3 table,
    exits 2 with its own message, and no map is evaluated."""
    path = tmp_path / "s.json"
    path.write_text(text)
    monkeypatch.setattr(maps, "_eval", lambda *_: pytest.fail("a map was evaluated"))
    for module in (maps, grades):
        monkeypatch.setattr(module, "bipartitions", lambda n: pytest.fail("sides were listed"))
    code, out, err = run(capsys, "detect", "--map-file", str(path), "--n", "1", "--d", "2",
                         "--state", "mixed")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_table_bounds_count_the_expanded_tree():
    """A doubling chain of 14 sums, 32767 nodes in 15 entries, and a chain of
    63 composes, 64 levels deep, are read; one more level of either is not."""
    sums = [IDENTITY2] + [{"kind": "sum", "children": [k, k]} for k in range(15)]
    composes = [IDENTITY2] + [{"kind": "compose", "outer": 0, "inner": k} for k in range(64)]
    for table, fits, message in ((sums, 15, "more than 32768 nodes"), (composes, 64, "deeper")):
        m = serialize.mapexpr_from_json(json.loads(_table(*table[:fits])))
        assert len(list(maps.nodes(m))) == fits
        with pytest.raises(ValueError, match=message):
            serialize.mapexpr_from_json(json.loads(_table(*table[:fits + 1])))


@pytest.mark.parametrize("map_id, n, d", SCALED)
def test_scaled_files_are_json_dumps(tmp_path, capsys, map_id, n, d):
    """The map file `detect --export-map` writes and the witness file `witness`
    writes are `json.dumps` of their documents and a newline, with the bytes
    of the [re, im] pair lists `tolist` makes."""
    size = ["--n", str(n), "--d", str(d), "--state", "ghz"]
    mpath, wpath = tmp_path / "m.json", tmp_path / "w.json"
    assert run(capsys, "detect", "--map", map_id, *size, "--export-map", str(mpath))[0] == 0
    assert run(capsys, "witness", "--map", map_id, *size, "--output", str(wpath))[0] == 0
    m = criteria.build_map(map_id, n, d)
    text = mpath.read_text(encoding="utf-8")
    assert text == json.dumps(mapexpr_to_json(m.expr)) + "\n"
    assert text == reference_text(serialize._map_doc(m.expr))
    psi = PureState(m.dims, detect(m, states.depolarized(ghz(n, d), 1.0)).eigvec)
    w = criteria.map_to_witness(m, psi)  # the witness as the command builds it
    text = wpath.read_text(encoding="utf-8")
    assert text == json.dumps(state_to_json(w)) + "\n"
    assert text == reference_text(serialize._state_doc(w))


# sha256 of `detect --state ghz` stdout at the detect-scaled sizes, the
# eigenvector of 128 to 256 entries included, with its length in characters.
# Recorded before report arrays were printed into holes; the eigenvector's
# last bits depend on the LAPACK build, so the pins are compared where the
# float kernels round as on the recording build.
DETECT_SHA256 = {
    ("eta", 7): ("3cacb1563270c43cb1f93418bc1fdb2df508c71fb5b2dacbeae1d13460877f78", 4651),
    ("eta", 8): ("eca05814349b7c955c44d2194c72c55141e9e9f939a0d409266015509defc1c4", 9003),
    ("phi-tx", 8): ("198261bcda9e3534d16b99cd4503195020a4fa14464aa88e0e12315b75555f7a", 8991),
    ("phi-t", 8): ("68ccf8954e383eec0b1d6327b16dd486d3495e53943502e5bf0a10474fbc6292", 9005),
    ("phi-r", 5): ("07ba1a441337aaa2668076292fe6a8f8cd26292fcec5037efd402c4b424f472c", 8579),
    ("phi-b", 4): ("315da90421f9879d7d4f7b811ac14f7be6620e2979d854cde4ef2e407a5b976e", 9005),
    ("mu-choi", 5): ("f1c85801a2e8ae80453b1b34c8c10c3be61b6a167a16424fa060afaa1d270a84", 8579),
}


@pytest.mark.parametrize("map_id, n, d", SCALED)
def test_scaled_detect_stdout_pinned(capsys, map_id, n, d):
    if _float_kernels_fingerprint() != FLOAT_KERNELS_SHA256:
        pytest.skip("the pins were recorded on a LAPACK and BLAS build that rounds otherwise")
    code, out, _ = run(capsys, "detect", "--map", map_id, "--n", str(n), "--d", str(d),
                       "--state", "ghz")
    assert code == 0 and len(json.loads(out)["eigvec"]) == d ** n
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == DETECT_SHA256[map_id, n]


def test_witness_write_makes_no_pair_lists(tmp_path):
    """Saving a 256 x 256 real witness peaks at 2.6 * 16 D^2 bytes of Python
    allocations; a list of [re, im] floats per entry before `json.dumps`
    peaked at 11.1 * 16 D^2."""
    w = criteria.map_to_witness(criteria.build_map("phi-tx", 8, 2), ghz(8, 2))
    path = str(tmp_path / "w.json")
    save_state(path, w)
    tracemalloc.start()
    try:
        save_state(path, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 16 * 256 ** 2


def test_unexportable_map_exits_2(tmp_path, capsys, monkeypatch):
    deep = compose(*[identity_map(8)] * 70)
    monkeypatch.setattr(criteria, "build_map",
                        lambda *a: criteria.GmeMap("deep", deep, SiteDims((2, 2, 2))))
    mpath = tmp_path / "m.json"
    code, _, err = run(capsys, "detect", "--map", "phi-t", "--n", "3", "--state", "mixed",
                       "--export-map", str(mpath))
    assert code == 2
    assert err.startswith("error:") and "deeper" in err
    assert not mpath.exists()


def test_oversized_map_exits_2_before_building(capsys, monkeypatch):
    def enumerate_nothing(n):
        raise AssertionError("bipartitions enumerated")

    monkeypatch.setattr(criteria, "bipartitions", enumerate_nothing)
    code, out, err = run(capsys, "detect", "--map", "phi-t", "--n", "40", "--state", "ghz")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "2^40" in err


def test_memory_error_exits_2(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(criteria, "build_map", out_of_memory)
    code, out, err = run(capsys, "detect", "--map", "phi-t", "--n", "3", "--state", "ghz")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory") and "Traceback" not in err


# ---------------------------------------------------------------------------
# one map source, and --n/--d that agree with the file that fixes the sites
# ---------------------------------------------------------------------------

@pytest.fixture
def map_and_witness_files(tmp_path, capsys):
    """A phi-tx map file and a witness file, both on 3 qubits."""
    mpath, wpath = tmp_path / "m3.json", tmp_path / "w3.json"
    code, _, _ = run(capsys, "detect", "--map", "phi-tx", "--n", "3", "--state", "ghz",
                     "--export-map", str(mpath))
    assert code == 0
    save_state(str(wpath), maximally_mixed((2, 2, 2)))
    return {"--map": "eta", "--map-file": str(mpath), "--witness-file": str(wpath)}


@pytest.mark.parametrize("sources", [("--map", "--map-file"), ("--map", "--witness-file"),
                                     ("--map-file", "--witness-file"),
                                     ("--map", "--map-file", "--witness-file")])
def test_one_map_source(capsys, map_and_witness_files, sources):
    argv = [a for flag in sources for a in (flag, map_and_witness_files[flag])]
    code, out, err = run(capsys, "detect", *argv, "--n", "3", "--state", "ghz")
    assert code == 2 and out == ""
    assert err == f"error: give only one of {', '.join(sources)}\n"


@pytest.mark.parametrize("source", ["--map-file", "--witness-file"])
@pytest.mark.parametrize("flags", [["--n", "5"], ["--d", "3"], ["--n", "5", "--d", "3"],
                                   ["--n", "3", "--d", "3"]])
def test_file_sites_must_match_n_and_d(capsys, map_and_witness_files, source, flags):
    code, out, err = run(capsys, "detect", source, map_and_witness_files[source], *flags,
                         "--state", "ghz")
    assert code == 2 and out == ""
    assert err.startswith("error: --n/--d disagree with the sites (2, 2, 2)")


@pytest.mark.parametrize("source", ["--map-file", "--witness-file"])
def test_file_dimension_limit(capsys, monkeypatch, map_and_witness_files, source):
    """A map or witness file with D above `criteria.MAX_DIM` exits 2 before it is run."""
    monkeypatch.setattr(criteria, "MAX_DIM", 4)
    code, out, err = run(capsys, "detect", source, map_and_witness_files[source],
                         "--n", "3", "--state", "ghz")
    assert code == 2 and out == ""
    assert err == f"error: {source[2:].replace('-', ' ')} dimension 8 exceeds the supported maximum 4\n"


@pytest.mark.parametrize("source", ["--map-file", "--witness-file"])
def test_file_sites_matching_or_omitted_flags(capsys, map_and_witness_files, source):
    """Omitted or matching --n/--d give the same report, byte for byte."""
    reports = set()
    for flags in ([], ["--n", "3"], ["--d", "2"], ["--n", "3", "--d", "2"]):
        code, out, _ = run(capsys, "detect", source, map_and_witness_files[source], *flags,
                           "--state", "ghz")
        assert code == 0
        reports.add(out)
    assert len(reports) == 1


# ---------------------------------------------------------------------------
# hostile numeric flags exit 2 before anything is built
# ---------------------------------------------------------------------------

@pytest.fixture
def no_build(monkeypatch):
    def fail(*args):
        raise AssertionError("map built")

    monkeypatch.setattr(criteria, "build_map", fail)
    monkeypatch.setattr(maps, "estimate_mu", fail)


TOL_COMMANDS = [
    ["verify", "--map", "eta", "--n", "3", "--samples", "3"],
    ["detect", "--map", "eta", "--n", "3", "--state", "ghz"],
    ["threshold", "--map", "eta", "--n", "3"],
    ["scan", "--map", "eta", "--n", "3", "--family", "noisy-ghz", "--grid", "0.5:0.6:0.1"],
    ["witness", "--map", "eta", "--n", "3", "--state", "ghz", "--output", "/nonexistent/w"],
]


@pytest.mark.parametrize("argv", TOL_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("tol", ["-1", "-1e-300", "nan", "inf", "-inf"])
def test_tol_must_be_finite_and_non_negative(capsys, no_build, argv, tol):
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert code == 2 and out == ""
    assert err.startswith("error: --tol must be finite and >= 0")


@pytest.mark.parametrize("argv", [["verify", "--map", "eta", "--n", "3", "--samples", "3"],
                                  ["mu", "--primitive", "transpose", "--samples", "3"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_seed_must_be_non_negative(capsys, no_build, argv, seed):
    code, out, err = run(capsys, *argv, f"--seed={seed}")
    assert code == 2 and out == ""
    assert err == f"error: --seed must be >= 0, got {seed}\n"


def test_tol_zero_is_valid(capsys):
    code, out, _ = run(capsys, "verify", "--map", "eta", "--n", "3", "--samples", "3",
                       "--tol", "0")
    assert code == 0 and json.loads(out)["tolerance"] == 0.0


@pytest.mark.parametrize("command", ["threshold", "detect", "witness"])
@pytest.mark.parametrize("lam", ["inf", "nan", "-inf", "1,nan,1", "1,1,inf"])
def test_lam_must_be_finite(capsys, no_build, command, lam):
    argv = [command, "--map", "mu-choi", "--n", "3", "--d", "3", "--state", "ppt",
            f"--lam={lam}"] + (["--output", "/nonexistent/w"] if command == "witness" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: all family parameters must be finite and strictly positive\n"


@pytest.mark.parametrize("primitive, d", [("transpose", "100000"), ("reduction", "33"),
                                          ("breuer-hall", "34")])
def test_mu_rejects_oversized_d(capsys, no_build, primitive, d):
    code, out, err = run(capsys, "mu", "--primitive", primitive, "--d", d)
    assert code == 2 and out == ""
    assert err == f"error: d^2 = {int(d) ** 2} exceeds the supported maximum 1024\n"


@pytest.mark.parametrize("primitive", sorted(cli._PRIMITIVES))
@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_mu_rejects_d_below_2(capsys, no_build, primitive, d):
    """`mu` refuses a local dimension below 2 as `build_map` does."""
    code, out, err = run(capsys, "mu", "--primitive", primitive, "--d", d)
    assert code == 2 and out == ""
    assert err == f"error: local dimension d must be >= 2, got {d}\n"


@pytest.mark.parametrize("d", ["3", "5", "7"])
def test_mu_breuer_hall_odd_d_exits_2(capsys, no_build, d):
    code, out, err = run(capsys, "mu", "--primitive", "breuer-hall", "--d", d)
    assert code == 2 and out == ""
    assert err == "error: Breuer-Hall map needs even d >= 4\n"
