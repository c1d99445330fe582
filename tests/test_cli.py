"""The command-line surface: exit codes, JSON shape, determinism."""

import json
import os

import numpy as np
import pytest

from frobenii.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_catalog_list(capsys):
    code, data = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert "A3" in data["results"]["potentials"]


def test_catalog_show_roundtrips(capsys, tmp_path):
    code, data = run_cli(capsys, "catalog", "show", "A3")
    assert code == 0
    from frobenii.frobenius import catalog, potential_from_dict
    P = potential_from_dict(data["results"])
    assert P.F == catalog("A3").F


def test_wdvv_check_catalog_passes(capsys):
    code, data = run_cli(capsys, "wdvv", "check", "A3")
    assert code == 0
    assert data["status"] == "PASS"
    assert data["residuals"]["wdvv1_nonzero"] == "0"


def test_wdvv_check_file_and_failure(capsys, tmp_path):
    from fractions import Fraction as F
    from frobenii.exact import ExpPolynomial
    from frobenii.frobenius import (FrobeniusPotential, catalog,
                                    potential_to_json)
    P = catalog("A3")
    bad = P.F + ExpPolynomial.monomial(3, F(1, 961) - F(1, 960), (0, 0, 5))
    Q = FrobeniusPotential(3, bad, P.d, P.q, P.r, name="A3-broken")
    path = tmp_path / "bad.json"
    path.write_text(potential_to_json(Q), encoding="utf-8")
    code, data = run_cli(capsys, "wdvv", "check", str(path))
    assert code == 1
    assert data["status"] == "FAIL"
    assert data["residuals"]["wdvv1_nonzero"] != "0"


@pytest.mark.parametrize("target", ["A3", "CP2"])
def test_wdvv_check_reports_metrics(capsys, target):
    from frobenii.frobenius import catalog, check_wdvv1
    code, data = run_cli(capsys, "wdvv", "check", target)
    assert code == 0
    m = data["metrics"]
    seconds = {"tensors_s", "wdvv1_s", "quasihomogeneity_s", "grading_s"}
    assert set(m) == seconds | {"wdvv1_entries", "wdvv1_products", "wdvv1_skipped"}
    assert all(m[k] >= 0 for k in seconds)
    P = catalog(target)
    rep = check_wdvv1(P)
    assert [m["wdvv1_entries"], m["wdvv1_products"], m["wdvv1_skipped"]] == \
        [rep.entries, rep.products, rep.skipped]
    assert m["wdvv1_entries"] > 0 and m["wdvv1_products"] > 0
    # only the truncated plane potential skips products
    assert (m["wdvv1_skipped"] > 0) == (P.exp_truncation is not None)


def test_gw_nk_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "nk.csv"
    code, data = run_cli(capsys, "gw", "nk", "--max", "4", "--csv", str(csv_path))
    assert code == 0
    assert data["results"]["N"] == {"1": 1, "2": 1, "3": 12, "4": 620}
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 5


def test_gw_nk_checks_every_k(capsys, monkeypatch):
    from frobenii import gwcp2
    code, data = run_cli(capsys, "gw", "nk", "--max", "30")
    assert code == 0 and data["results"]["ode_pde_agree"] is True
    assert data["results"]["checked_range"] == [1, 30]
    real = gwcp2.kontsevich_numbers
    monkeypatch.setattr(gwcp2, "kontsevich_numbers",
                        lambda K: real(K)[:-1] + [real(K)[-1] + 1])
    code, data = run_cli(capsys, "gw", "nk", "--max", "30")
    assert code == 1 and data["status"] == "FAIL"
    assert data["results"]["ode_pde_agree"] is False


@pytest.mark.parametrize("action, keys", [
    ("nk", {"ode_s", "kontsevich_s", "max_bits"}),
    ("elliptic", {"ode_s", "triangular_s", "neumann_s", "max_bits"}),
    ("fit", {"ode_s", "fit_s", "max_bits"}),
])
def test_gw_reports_carry_metrics(capsys, action, keys):
    from frobenii import gwcp2
    code, data = run_cli(capsys, "gw", action, "--max", "24")
    assert code == 0
    m = data["results"]["metrics"]
    assert set(m) == keys
    assert all(m[k] >= 0 for k in keys if k.endswith("_s"))
    if action == "elliptic":
        assert m["max_bits"] == gwcp2.elliptic_series(24).bit_height()
    else:
        assert m["max_bits"] == gwcp2.genus0_numbers(24)[-1].bit_length()


def test_gw_csv_writes_the_rows_of_the_command(capsys, tmp_path):
    nk, el = tmp_path / "nk.csv", tmp_path / "el.csv"
    run_cli(capsys, "gw", "nk", "--max", "4", "--csv", str(nk))
    lines = nk.read_text().splitlines()
    assert lines[0] == "k,N_k,A_k,ratio" and len(lines) == 5
    assert lines[3].startswith("3,12,")
    run_cli(capsys, "gw", "elliptic", "--max", "4", "--csv", str(el))
    assert el.read_text().splitlines() == ["k,N1_k", "1,0", "2,0", "3,1", "4,225"]


def test_gw_fit(capsys):
    code, data = run_cli(capsys, "gw", "fit", "--max", "24")
    assert code == 0
    assert 0.1 < data["results"]["a_hat"] < 0.2


def test_stokes_braid_word(capsys):
    code, data = run_cli(capsys, "stokes", "braid", "CP2", "--word", "1")
    assert code == 0
    assert data["results"]["canonical_triple"] == ["3", "3", "6"]


def test_stokes_orbit_cap_and_env(capsys, monkeypatch):
    code, data = run_cli(capsys, "stokes", "orbit", "CP2", "--max-size", "200")
    assert code == 0
    assert data["results"]["exceeded"] is True
    # the cap is --max-size or the stated default; the environment is ignored
    monkeypatch.setenv("FROBENII_MAX_ORBIT", "3")
    code, data = run_cli(capsys, "stokes", "orbit", "A3-graph")
    assert code == 0
    assert data["inputs"]["max_size"] == 10 ** 6
    assert data["results"]["size"] == 4


def test_stokes_orbit_finite(capsys):
    code, data = run_cli(capsys, "stokes", "orbit", "A3-graph")
    assert code == 0
    assert data["results"]["size"] == 4


@pytest.mark.parametrize("argv", [["orbit"], ["braid", "--word", ""]])
def test_stokes_mixed_fields_is_an_error_report(capsys, tmp_path, argv):
    # written by hand: StokesMatrix refuses to build a mixed-field matrix
    mixed = {"n": 3, "m": 2, "rows": [["1", "1√2", "1√5"], ["0", "1", "1"],
                                      ["0", "0", "1"]]}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(mixed), encoding="utf-8")
    code, data = run_cli(capsys, "stokes", argv[0], str(path), *argv[1:])
    assert code == 2
    assert data["status"] == "ERROR"
    assert data["error"] == "sqrt(2) vs sqrt(5)"


def test_stokes_cp2_monodromy(capsys):
    code, data = run_cli(capsys, "stokes", "cp2-monodromy")
    assert code == 0
    assert data["status"] == "PASS"


def test_pvi_verify(capsys):
    code, data = run_cli(capsys, "pvi", "verify", "B3", "--samples", "10",
                         "--tol", "1e-10")
    assert code == 0
    assert data["results"]["max_residual"] == 0.0
    assert data["results"]["mu"] == "-1/3"


def test_pvi_integrate(capsys):
    code, data = run_cli(capsys, "pvi", "integrate", "B3",
                         "--s0", "3/4", "--s1", "9/10", "--tol", "1e-11")
    assert code == 0
    assert data["residuals"]["endpoint_error"] < 1e-6


def test_pvi_integrate_step_underflow_is_an_error_report(capsys):
    # the segment runs into a singular value of the A3 solution
    code, data = run_cli(capsys, "pvi", "integrate", "A3",
                         "--s0", "1/2", "--s1", "9/10")
    assert code == 2
    assert data["status"] == "ERROR"
    assert "underflow" in data["error"]


def test_iso_integrate_colliding_start_is_an_error_report(capsys, tmp_path):
    from frobenii.semisimple import IsoState, state_to_dict
    W = np.arange(9.0).reshape(3, 3)
    st = IsoState(u=[0j, 0j, 1 + 0j], V=W - W.T)
    spath = tmp_path / "state.json"
    ppath = tmp_path / "path.json"
    spath.write_text(json.dumps(state_to_dict(st)), encoding="utf-8")
    ppath.write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]]),
                     encoding="utf-8")
    code, data = run_cli(capsys, "iso", "integrate", "--state", str(spath),
                         "--path", str(ppath))
    assert code == 2
    assert data["status"] == "ERROR"


def test_iso_integrate(capsys, tmp_path):
    import numpy as np
    from frobenii.semisimple import IsoState, state_to_dict
    rng = np.random.default_rng(0)
    W = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    st = IsoState(u=[0j, 1 + 0j, 2.3 + 0.7j], V=W - W.T)
    spath = tmp_path / "state.json"
    ppath = tmp_path / "path.json"
    spath.write_text(json.dumps(state_to_dict(st)), encoding="utf-8")
    ppath.write_text(json.dumps([[[0.1, 0.2], [1.2, 0.1], [2.2, 0.8]],
                                 [[0.0, 0.0], [1.0, 0.0], [2.3, 0.7]]]),
                     encoding="utf-8")
    code, data = run_cli(capsys, "iso", "integrate", "--state", str(spath),
                         "--path", str(ppath), "--tol", "1e-10")
    assert code == 0
    assert data["residuals"]["spectral_drift"] < 1e-8
    res = data["results"]
    m = res["metrics"]
    assert set(m) == {"segments", "steps", "rejected", "integrate_s"}
    assert m["segments"] == 2 and m["integrate_s"] >= 0
    assert (m["steps"], m["rejected"]) == (res["steps"], res["rejected"]) and m["steps"] > 0


def test_iso_integrate_interior_collision_is_an_error_report(capsys, tmp_path):
    from frobenii.semisimple import IsoState, state_to_dict
    W = np.arange(9.0).reshape(3, 3)
    st = IsoState(u=[0j, 1 + 0j, 3 + 0j], V=W - W.T)
    spath = tmp_path / "state.json"
    ppath = tmp_path / "path.json"
    spath.write_text(json.dumps(state_to_dict(st)), encoding="utf-8")
    ppath.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0], [3.0, 0.0]]]),
                     encoding="utf-8")
    code, data = run_cli(capsys, "iso", "integrate", "--state", str(spath),
                         "--path", str(ppath))
    assert code == 2
    assert data["status"] == "ERROR"
    assert "segment 1" in data["error"] and "u_1 and u_2" in data["error"]


def test_sing_an(capsys):
    code, data = run_cli(capsys, "sing", "an", "--n", "3")
    assert code == 0
    assert any("1/8" in s for s in data["results"]["flat_substitution"])


def test_usage_error_exit_code(capsys):
    assert main(["catalog", "show", "E8"]) == 2


def test_error_report_has_the_full_schema(capsys):
    code, data = run_cli(capsys, "sing", "an", "--n", "9")
    assert code == 2
    assert data["status"] == "ERROR"
    assert data["command"] == "sing an"
    assert data["inputs"] == {"n": 9}
    assert {"command", "inputs", "status", "results", "residuals",
            "error"} <= set(data)
    assert "n <= 8" in data["error"]


def test_parser_is_built_once(capsys):
    from frobenii import cli
    cli.build_parser.cache_clear()
    code1, d1 = run_cli(capsys, "catalog", "show", "A3")
    code2, d2 = run_cli(capsys, "catalog", "show", "A3")
    assert cli.build_parser.cache_info().misses == 1
    assert code1 == code2 == 0
    assert d1 == d2


def test_sing_an_derives_flat_coordinates_once(capsys):
    from frobenii.singularity import flat_coordinates
    flat_coordinates.cache_clear()
    code, data = run_cli(capsys, "sing", "an", "--n", "4")
    assert code == 0
    assert flat_coordinates.cache_info().misses == 1
    assert data["results"]["flat_substitution"][1] == "1/5*t4^2 + 1*t2"


def test_deterministic_output(capsys, monkeypatch):
    # the clock is the one input that may differ between runs: with the same
    # ticks in both, the whole report, metrics included, must match
    import itertools
    import time

    def check():
        monkeypatch.setattr(time, "perf_counter", itertools.count().__next__)
        return run_cli(capsys, "wdvv", "check", "B3")
    code1, d1 = check()
    code2, d2 = check()
    assert d1 == d2 and "metrics" in d1


@pytest.mark.parametrize("mu1", [None, "-1/4"])
def test_pvi_verify_csv_max_is_max_residual(capsys, tmp_path, monkeypatch, mu1):
    # with the wrong mu the residuals are nonzero, and the CSV column and the
    # report still come from the same evaluations
    import csv
    import dataclasses
    from fractions import Fraction
    from frobenii import painleve
    if mu1 is not None:
        fam = dataclasses.replace(painleve.FAMILIES["B3"], mu1=Fraction(mu1))
        monkeypatch.setitem(painleve.FAMILIES, "B3", fam)
    path = tmp_path / "b3.csv"
    code, data = run_cli(capsys, "pvi", "verify", "B3", "--samples", "8",
                         "--csv", str(path))
    with open(path, newline="") as fh:
        column = [float(row["residual"]) for row in csv.DictReader(fh)]
    assert len(column) == 8
    assert max(column) == data["results"]["max_residual"]
    assert code == (0 if mu1 is None else 1)


def test_pvi_verify_csv(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    code, _ = run_cli(capsys, "pvi", "verify", "A3", "--samples", "5",
                      "--csv", str(path))
    assert code == 0
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "s,x,y,residual"
    assert len(rows) == 6
