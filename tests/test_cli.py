"""Command line behaviour: reports, exit codes, reproducibility, round trips."""

import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from gme_maps import cli, criteria, maps, serialize, states
from gme_maps.cli import main
from gme_maps.detect import detect
from gme_maps.maps import SchurWith, TraceOuter, compose, identity_map
from gme_maps.operators import MpOperator, SiteDims
from gme_maps.serialize import mapexpr_to_json, save_state, state_to_json, write_json
from gme_maps.states import PureState, ghz, maximally_mixed
from helpers import hermitian_op, rand_density, reference_text


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

    monkeypatch.setattr(cli, "is_hermitian_array", counting)
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
# (`maps.Compose.support`), which folds the tree's scalars before it touches
# the data: each of mu-choi's twelve nonzero diagonal entries is one rounding
# of 3 * <000|rho|000> = 1.00000000000000028, 1.0000000000000002, where summing
# the tree's terms one by one gave 1.0000000000000004.  The zero off-diagonal
# support entries are written as 0.0, not as the -0.0 that -3 * 0.0 gives.
EXPORT_SHA256 = {
    "phi-tx": "c7fa55220fc52490286a9448d24c2b5fa61aa1c53c19a563d4b8b5ed14920e50",
    "eta": "615fdd863a5f478592bfcb7a18bb62f59daee96bdcada8135a6f3c5d4912e216",
    "mu-choi": "fd86d64ebe86dd1b90a462d76a291cdad98f15f0969cedf01026d3d917af3750",
}
WITNESS_SHA256 = {
    "phi-tx": "c6db874cded02766a379d1f1067f126760c0a7581b7d131bd2c1315a01dcdbf0",
    "eta": "284a4e3f9b2729a9697634c6d2d377c30ad64a531f07d7732432a7005756cdaf",
    "mu-choi": "3bcec56c989b5c50cc938b591787d863c32afb00fb7b3747d38dfd59ed1758b2",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("map_id", sorted(EXPORT_SHA256))
def test_written_files_pinned(tmp_path, capsys, map_id):
    n, d = criteria.SMALLEST[map_id]
    mpath = tmp_path / "m.json"
    code, _, _ = run(capsys, "detect", "--map", map_id, "--n", str(n), "--d", str(d),
                     "--state", "ghz", "--export-map", str(mpath))
    assert code == 0
    assert _sha256(mpath) == EXPORT_SHA256[map_id]
    wpath = tmp_path / "w.json"
    save_state(str(wpath), criteria.map_to_witness(criteria.build_map(map_id, n, d),
                                                   ghz(n, d)))
    assert _sha256(wpath) == WITNESS_SHA256[map_id]


# Every catalog map at the sizes of the detect-scaled benchmark, D = 128..256.
SCALED = (("eta", 7, 2), ("eta", 8, 2), ("phi-tx", 8, 2), ("phi-t", 8, 2),
          ("phi-r", 5, 3), ("phi-b", 4, 4), ("mu-choi", 5, 3))


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
