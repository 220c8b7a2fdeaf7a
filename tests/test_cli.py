"""Command line behaviour: reports, exit codes, reproducibility, round trips."""

import json

import numpy as np
import pytest

from gme_maps.cli import main
from gme_maps.serialize import save_state, state_to_json
from gme_maps.states import maximally_mixed


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


def test_threads_env_fallback(monkeypatch):
    from gme_maps.cli import build_parser
    monkeypatch.setenv("GME_MAPS_THREADS", "6")
    args = build_parser().parse_args(["verify", "--map", "phi-tx", "--n", "3"])
    assert args.threads == 6
    monkeypatch.setenv("GME_MAPS_THREADS", "junk")
    args = build_parser().parse_args(["verify", "--map", "phi-tx", "--n", "3"])
    assert args.threads == 1


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
