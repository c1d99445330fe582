"""The command-line surface: exit codes, JSON shape, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frobenii
from frobenii.cli import main
from frobenii.frobenius import CATALOG_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_catalog_list(capsys):
    code, data = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert "A3" in data["results"]["potentials"]


@pytest.mark.parametrize("name, shown", [("CP2(3)", "CP2(3)"), ("cp2(4)", "CP2(4)"),
                                         ("CP2", "CP2(5)")])
def test_catalog_show_cp2_is_spelled_with_its_order(capsys, name, shown):
    code, data = run_cli(capsys, "catalog", "show", name)
    assert code == 0
    assert data["results"]["name"] == shown
    assert data["results"]["exp_truncation"] == [1, int(shown[4:-1])]


@pytest.mark.parametrize("name", ["CP2(35", "CP2(", "CP2()", "CP2(x)", "CP2(0)"])
def test_catalog_show_malformed_cp2_is_an_error_report(capsys, name):
    code, data = run_cli(capsys, "catalog", "show", name)
    assert code == 2
    assert data["status"] == "ERROR"


def test_catalog_show_order_flag_is_a_usage_error(capsys):
    assert main(["catalog", "show", "CP2", "--order", "3"]) == 2
    assert "unrecognized arguments: --order 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["catalog", "show", "A2"], ["catalog", "show", "B2"],
                                  ["stokes", "orbit", "A3"], ["stokes", "orbit", "B3"],
                                  ["stokes", "orbit", "H3"]], ids=" ".join)
def test_removed_catalog_spellings_are_error_reports(capsys, argv):
    # I2(3), I2(4) and the *-graph Stokes entries are the one spelling each
    code, data = run_cli(capsys, *argv)
    assert code == 2 and data["status"] == "ERROR"
    assert data["error"].startswith("unknown ")


@pytest.mark.parametrize("argv, error", [
    (["catalog", "show", "CP2(35"], "unknown catalog entry 'CP2(35'"),
    (["stokes", "orbit", "NOPE"], "unknown Stokes catalog entry 'NOPE'"),
])
def test_unknown_entry_error_is_the_message_not_its_repr(capsys, argv, error):
    code, data = run_cli(capsys, *argv)
    assert code == 2 and data["error"] == error


def test_catalog_name_lists_are_pinned():
    # the benchmark's `exact` workload iterates CATALOG_NAMES in this order
    from frobenii.stokes import STOKES_CATALOG_NAMES
    assert CATALOG_NAMES == ["I2(3)", "I2(4)", "I2(5)", "A3", "B3", "H3",
                             "A4", "B4", "D4", "F4", "H4", "CP1", "CP2"]
    assert STOKES_CATALOG_NAMES == ["CP1", "CP2", "CP2-monodromy", "D4-nonstd",
                                    "F4-nonstd", "H4-nonstd-1", "H4-nonstd-2",
                                    "H4-nonstd-3", "A3-graph", "B3-graph", "H3-graph",
                                    "B2"]


def test_every_catalog_name_loads_in_any_case_and_padding():
    from frobenii.frobenius import catalog, potential_to_dict
    from frobenii.stokes import STOKES_CATALOG_NAMES, stokes_catalog, stokes_to_dict
    for load, names, dump in [(catalog, CATALOG_NAMES, potential_to_dict),
                              (stokes_catalog, STOKES_CATALOG_NAMES, stokes_to_dict)]:
        for name in names:
            want = dump(load(name))
            for spelling in (name.lower(), f" {name} ", f" {name.lower()} "):
                assert dump(load(spelling)) == want, spelling


@pytest.mark.parametrize("name, error", [
    # a k that int() refuses is an unknown entry, named as typed
    ("CP2(x)", "unknown catalog entry 'CP2(x)'"),
    ("I2()", "unknown catalog entry 'I2()'"),
    ("CP2()", "unknown catalog entry 'CP2()'"),
    # an integer k keeps the refusal of its entry
    ("I2(2)", "I2(k) needs k >= 3"),
    ("CP2(0)", "K must be >= 1"),
    ("CP2(-1)", "K must be >= 1"),
    ("CP2(35", "unknown catalog entry 'CP2(35'"),
])
def test_catalog_show_of_a_bad_name_k_is_an_error_report(capsys, name, error):
    code, data = run_cli(capsys, "catalog", "show", name)
    assert code == 2 and data["status"] == "ERROR"
    assert data["error"] == error


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
    from frobenii.frobenius import FrobeniusPotential, catalog, potential_to_dict
    P = catalog("A3")
    bad = P.F + ExpPolynomial.monomial(3, F(1, 961) - F(1, 960), (0, 0, 5))
    Q = FrobeniusPotential(3, bad, P.d, P.q, P.r, name="A3-broken")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(potential_to_dict(Q)), encoding="utf-8")
    code, data = run_cli(capsys, "wdvv", "check", str(path))
    assert code == 1
    assert data["status"] == "FAIL"
    assert data["residuals"]["wdvv1_nonzero"] != "0"


@pytest.mark.parametrize("name", CATALOG_NAMES + ["CP2(3)"])
def test_wdvv_check_of_a_shown_entry_equals_the_check_by_name(capsys, tmp_path, name):
    # the report of `catalog show NAME` is a potential file: checked from
    # that file it gives the results and residuals of the check by name
    _, shown = run_cli(capsys, "catalog", "show", name)
    path = tmp_path / "shown.json"
    path.write_text(json.dumps(shown["results"]), encoding="utf-8")
    by_file = run_cli(capsys, "wdvv", "check", str(path))
    by_name = run_cli(capsys, "wdvv", "check", name)
    assert by_file[0] == by_name[0] == 0
    for key in ("results", "residuals"):
        assert by_file[1][key] == by_name[1][key]


@pytest.mark.parametrize("key, value, error", [
    ("terms", {"coeff": "1000", "powers": [0, 0, 0], "exps": [0, 7, 0]}, "outside its window"),
    ("exp_truncation", [3, 3], "outside 0..2"),
    ("exp_truncation", [1, "x"], "must be an integer, got 'x'"),
], ids=["term beyond the window", "window variable 3", "window order x"])
def test_wdvv_check_of_a_malformed_window_is_an_error_report(capsys, tmp_path, key, value,
                                                             error):
    from frobenii.frobenius import catalog, potential_to_dict
    data = potential_to_dict(catalog("CP2(3)"))
    if key == "terms":
        data["terms"].append(value)
    else:
        data[key] = value
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, report = run_cli(capsys, "wdvv", "check", str(path))
    assert code == 2 and report["status"] == "ERROR"
    assert error in report["error"]


@pytest.mark.parametrize("key, value, error", [
    ("powers", [1, 1], "term arity does not match nvars"),
    ("q", ["0", "1/4"], "grading data arity mismatch"),
    ("r", ["0", "0", "0", "0"], "grading data arity mismatch"),
    ("q", ["1/4", "1/4", "1/2"], "q must vanish at the unity coordinate"),
    ("r", ["0", "1", "0"], "r_alpha may be nonzero only where q_alpha = 1"),
], ids=["F arity", "q arity", "r arity", "q at unity", "r where q is not 1"])
def test_wdvv_check_of_inconsistent_grading_is_an_error_report(capsys, tmp_path, key,
                                                               value, error):
    # the refusals of FrobeniusPotential, met when an A3 file is read; a term
    # of the wrong arity is refused by F itself, before the potential is built
    from frobenii.frobenius import catalog, potential_to_dict
    data = potential_to_dict(catalog("A3"))
    if key == "powers":
        data["terms"][0]["powers"] = value
    else:
        data[key] = value
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, report = run_cli(capsys, "wdvv", "check", str(path))
    assert code == 2 and report["status"] == "ERROR"
    assert report["error"] == error


@pytest.mark.parametrize("name, index", [("A3", 7), ("I2(3)", -2)])
def test_wdvv_check_of_a_unity_index_out_of_range_is_an_error_report(capsys, tmp_path,
                                                                      name, index):
    # refused when the file is read, by its field name, not at first use
    from frobenii.frobenius import catalog, potential_to_dict
    P = catalog(name)
    data = potential_to_dict(P)
    data["unity_index"] = index
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, report = run_cli(capsys, "wdvv", "check", str(path))
    assert code == 2 and report["status"] == "ERROR"
    assert f"unity_index {index} is outside 0..{P.n - 1}" in report["error"]


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
    m = data["metrics"]
    assert "metrics" not in data["results"]
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
    assert lines[1].startswith("1,1,") and lines[3].startswith("3,12,")
    run_cli(capsys, "gw", "elliptic", "--max", "4", "--csv", str(el))
    assert el.read_text().splitlines() == ["k,N1_k", "1,0", "2,0", "3,1", "4,225"]


# A small input for each subcommand that takes --csv.
_CSV_INPUTS = {"gw nk": ["--max", "4"], "gw elliptic": ["--max", "4"],
               "pvi verify": ["B3", "--samples", "3"]}


def _subcommands():
    """(command action, arguments) for every row of the command table."""
    from frobenii import cli
    for command, (_, rows) in cli.COMMANDS.items():
        for action, _, arguments in rows:
            yield f"{command} {action}", arguments


def test_every_csv_flag_writes_a_table(capsys, tmp_path):
    # a flag that is accepted but writes nothing (as `gw fit --csv` once
    # was) fails here; a new --csv needs a small input in _CSV_INPUTS
    taking = [name for name, arguments in _subcommands()
              if any(flag == "--csv" for flag, _ in arguments)]
    assert sorted(taking) == sorted(_CSV_INPUTS)
    for name in taking:
        path = tmp_path / (name.replace(" ", "_") + ".csv")
        assert main([*name.split(), *_CSV_INPUTS[name], "--csv", str(path)]) == 0
        capsys.readouterr()
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert rows and all(col[:1].isalpha() for col in header.split(","))


def test_gw_fit(capsys):
    code, data = run_cli(capsys, "gw", "fit", "--max", "24")
    assert code == 0
    assert 0.1 < data["results"]["a_hat"] < 0.2


def test_gw_fit_needs_twenty_coefficients(capsys):
    code, data = run_cli(capsys, "gw", "fit", "--max", "19")
    assert code == 2 and data["status"] == "ERROR"
    assert data["error"] == "asymptotic fit needs K >= 20"


def test_gw_fit_csv_is_a_usage_error(capsys, tmp_path):
    # the fit has no table, so it takes no --csv
    path = tmp_path / "fit.csv"
    assert main(["gw", "fit", "--max", "24", "--csv", str(path)]) == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    assert not path.exists()


def test_stokes_braid_word(capsys):
    code, data = run_cli(capsys, "stokes", "braid", "CP2", "--word", "1")
    assert code == 0
    assert data["results"]["canonical_triple"] == ["3", "3", "6"]


def test_stokes_braid_word_with_a_zero_letter_is_an_error_report(capsys):
    # a text word is checked where a list is: by the generator's range
    code, data = run_cli(capsys, "stokes", "braid", "CP2", "--word", "0")
    assert code == 2 and data["status"] == "ERROR"
    assert data["error"] == "generator 0 out of range for n = 3"


def test_stokes_braid_word_with_a_non_integer_letter_is_an_error_report(capsys):
    code, data = run_cli(capsys, "stokes", "braid", "CP2", "--word", "1 x")
    assert code == 2 and data["status"] == "ERROR"
    assert data["error"] == "braid word '1 x': 'x' is not an integer"


@pytest.mark.parametrize("field, value, error", [
    ("n", 5, "stated n = 5, but there are 3 rows"),
    ("m", 2, "stated sqrt(2) vs sqrt(5)"),
])
def test_stokes_file_stating_a_wrong_n_or_m_is_an_error_report(capsys, tmp_path, field,
                                                              value, error):
    # a 3 x 3 matrix over Q(sqrt 5): its file is read as written, and refused
    # when it states another size or field
    data = {"n": 3, "m": 5, "rows": [["1", "1+1√5", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    path = tmp_path / "S.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli(capsys, "stokes", "braid", str(path), "--word", "1")[0] == 0
    path.write_text(json.dumps({**data, field: value}), encoding="utf-8")
    code, out = run_cli(capsys, "stokes", "braid", str(path), "--word", "1")
    assert code == 2 and out["status"] == "ERROR"
    assert out["error"] == error


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


def test_stokes_orbit_error_report_states_the_cap(capsys):
    code, data = run_cli(capsys, "stokes", "orbit", "NOPE")
    assert code == 2 and data["status"] == "ERROR"
    assert data["inputs"]["max_size"] == 10 ** 6


def test_stokes_orbit_report_carries_metrics(capsys):
    from frobenii import stokes
    code, data = run_cli(capsys, "stokes", "orbit", "CP2", "--max-size", "200")
    assert code == 0
    m = data["metrics"]
    assert "metrics" not in data["results"]
    assert set(m) == {"bfs_s", "steps", "images", "levels", "max_bits"}
    assert m["bfs_s"] >= 0
    res = stokes.orbit(stokes.stokes_catalog("CP2"), max_size=200)
    assert [m["steps"], m["images"], m["levels"], m["max_bits"]] == \
        [res.steps, res.images, res.levels, res.max_bits]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_stokes_orbit_cap_below_one_is_an_error_report(capsys, cap):
    code, data = run_cli(capsys, "stokes", "orbit", "A3-graph", "--max-size", cap)
    assert code == 2
    assert data["status"] == "ERROR"
    assert "at least 1" in data["error"]


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
    # the keys of iso integrate, segments aside: one straight segment
    m = data["metrics"]
    assert set(m) == {"integrate_s", "steps", "rejected", "min_order", "max_order"}
    assert m["integrate_s"] >= 0 and m["steps"] >= 1 and m["rejected"] >= 0
    # at tol 1e-11 a step starts at order 14 and stops by order 28
    assert 14 <= m["min_order"] <= m["max_order"] <= 28


@pytest.mark.parametrize("action", [["verify", "--samples", "3"],
                                    ["integrate", "--s0", "3/4", "--s1", "9/10"]])
def test_pvi_family_is_stated_by_its_canonical_name(capsys, action):
    code, data = run_cli(capsys, "pvi", action[0], "b3", *action[1:])
    assert code == 0 and data["inputs"]["family"] == "B3"
    assert main(["pvi", action[0], "X3", *action[1:]]) == 2
    assert "invalid choice: 'X3'" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_pvi_verify_without_samples_is_an_error_report(capsys, samples):
    code, data = run_cli(capsys, "pvi", "verify", "B3", "--samples", samples)
    assert code == 2
    assert data["status"] == "ERROR"
    assert f"at least 1, got {samples}" in data["error"]


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_pvi_integrate_tol_not_positive_is_an_error_report(capsys, tol):
    # also on a segment of length zero, which integrates nothing
    for s1 in ("9/10", "3/4"):
        code, data = run_cli(capsys, "pvi", "integrate", "B3",
                             "--s0", "3/4", "--s1", s1, "--tol", tol)
        assert code == 2
        assert data["status"] == "ERROR"
        assert data["error"] == f"tol must be positive, got {float(tol)}"


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_pvi_verify_tol_not_positive_is_an_error_report(capsys, tol):
    # at tol 0 an exact zero residual would FAIL, at nan every family would
    code, data = run_cli(capsys, "pvi", "verify", "B3", "--samples", "3", "--tol", tol)
    assert code == 2
    assert data["status"] == "ERROR"
    assert data["error"] == f"tol must be positive, got {float(tol)}"


def test_tol_inf_is_an_error_report(capsys, tmp_path):
    # no residual or step error can fail an infinite tolerance, so a PASS or
    # FAIL report would be misleading; each command refuses it instead
    argv, state = _json_inputs("iso")
    spath = tmp_path / "state.json"
    ppath = tmp_path / "path.json"
    spath.write_text(json.dumps(state), encoding="utf-8")
    ppath.write_text(json.dumps([[[0.1, 0.0], [1.0, 0.0], [2.0, 0.0]]]), encoding="utf-8")
    for args in (["pvi", "integrate", "B3", "--s0", "3/4", "--s1", "9/10"],
                 ["pvi", "verify", "B3", "--samples", "3"],
                 [*argv, "--state", str(spath), "--path", str(ppath)]):
        code, data = run_cli(capsys, *args, "--tol", "inf")
        assert code == 2
        assert data["status"] == "ERROR"
        assert data["error"] == "tol must be finite, got inf"


@pytest.mark.parametrize("family, s0, s1", [
    # the straight segment passes |y - 1| = 1e-4 near sigma = 0.4208
    ("B3", "7/20", "2/5"),
    # y has a double zero at s = sqrt(5)/3 on the segment
    ("A3", "1/2", "9/10"),
    # the segment meets y = 1 at s = sqrt(2) - 1
    ("B3", "2/5", "3/5"),
])
def test_pvi_integrate_runs_through_singular_values_of_y(capsys, family, s0, s1):
    # y meeting 0, 1 or x is no singularity of the isomonodromic flow of V
    code, data = run_cli(capsys, "pvi", "integrate", family, "--s0", s0, "--s1", s1)
    assert code == 0 and data["status"] == "PASS"
    assert data["residuals"]["endpoint_error"] < 1e-10


def test_pvi_integrate_onto_another_branch_fails(capsys):
    # the straight x-segment winds onto another branch of B3's solution: it
    # ends on a branch over x(s1), but not on s1's (tests/test_painleve.py)
    code, data = run_cli(capsys, "pvi", "integrate", "B3",
                         "--s0", "797/400", "--s1", "831/400")
    assert code == 1 and data["status"] == "FAIL"
    assert data["residuals"]["endpoint_error"] > 1e-3


def test_pvi_integrate_across_x_0_is_a_collision_error_report(capsys):
    # x(s) of A3 passes 0 at s = 1, a fixed singularity of PVI
    code, data = run_cli(capsys, "pvi", "integrate", "A3",
                         "--s0", "1/2", "--s1", "11/10")
    assert code == 2
    assert data["status"] == "ERROR"
    assert "collision margin" in data["error"]


def _json_inputs(kind):
    """A valid input of `kind` as JSON data: its argv head and the data."""
    from frobenii.frobenius import catalog, potential_to_dict
    from frobenii.semisimple import IsoState, state_to_dict
    from frobenii.stokes import stokes_catalog, stokes_to_dict
    if kind == "potential":
        return ["wdvv", "check"], potential_to_dict(catalog("A3"))
    if kind == "stokes":
        return ["stokes", "orbit"], stokes_to_dict(stokes_catalog("A3-graph"))
    if kind == "path":
        return ["iso", "integrate"], [[[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]]]
    W = np.arange(9.0).reshape(3, 3)
    return ["iso", "integrate"], state_to_dict(IsoState(u=[0j, 1 + 0j, 2 + 0j], V=W - W.T))


@pytest.mark.parametrize("kind, key, value, error", [
    ("potential", "q", None, "{path}: malformed field"),
    ("potential", "terms", None, "{path}: malformed field"),
    ("potential", "d", None, "{path}: malformed field"),
    ("potential", "n", None, "field 'n' must be an integer"),
    ("potential", "terms", [{"coeff": "1", "exps": [0, 0, 0]}],
     "{path}: missing field 'powers'"),
    ("stokes", "rows", None, "{path}: malformed field"),
    ("stokes", "rows", KeyError, "{path}: missing field 'rows'"),
    ("state", "u", None, "{path}: malformed field"),
    ("state", "V", KeyError, "{path}: missing field 'V'"),
    # [a, b] pairs of another length, which gave bare unpacking messages
    ("state", "u", [[0], [1, 0], [2, 0]], "{path}: malformed field: u entry [0]"),
    ("state", "u", "abc", "{path}: malformed field: u entry 'a'"),
    ("state", "V", [[[0, 0, 0]] * 3] * 3, "{path}: malformed field: V entry [0, 0, 0]"),
    ("path", 0, [[1], [1, 0], [2.5, 0]], "{path}: malformed field: path vertex 0 entry [1]"),
    # complex() read a JSON true or false as 1 or 0: u_1 = 1 collided with u_2
    ("state", "u", [[True, 0], [1, 0], [2, 0]],
     "{path}: malformed field: u entry [True, 0] holds a bool"),
    ("state", "V", [[[0, False]] * 3] * 3, "{path}: malformed field: V entry [0, False]"),
    ("path", 0, [[0, 0], [1, 0], [2.5, True]],
     "{path}: malformed field: path vertex 0 entry [2.5, True]"),
    ("potential", "exp_truncation", [1], "field 'exp_truncation' must be a pair"),
    ("potential", "exp_truncation", [1, 2, 3], "field 'exp_truncation' must be a pair"),
], ids=["potential q null", "potential terms null", "potential d null",
        "potential n null", "potential term without powers", "stokes rows null",
        "stokes without rows", "state u null", "state without V", "state u entry [0]",
        "state u abc", "state V entry of three", "path vertex entry [1]",
        "state u entry [true, 0]", "state V entry [0, false]",
        "path vertex entry [2.5, true]",
        "potential exp_truncation [1]", "potential exp_truncation [1, 2, 3]"])
def test_a_malformed_json_field_is_an_error_report(capsys, tmp_path, kind, key, value,
                                                   error):
    # each of these escaped as a traceback with exit 1
    argv, data = _json_inputs(kind)
    if value is KeyError:
        del data[key]
    else:
        data[key] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    if argv[0] == "iso":
        # the other file of iso integrate is valid
        other = "path" if kind == "state" else "state"
        files = {kind: path, other: tmp_path / "other.json"}
        files[other].write_text(json.dumps(_json_inputs(other)[1]), encoding="utf-8")
        argv = [*argv, "--state", str(files["state"]), "--path", str(files["path"])]
    else:
        argv = [*argv, str(path)]
    code, report = run_cli(capsys, *argv)
    assert code == 2 and report["status"] == "ERROR"
    assert report["error"].startswith(error.format(path=path))


@pytest.mark.parametrize("key, value, status", [
    ("q", ["0", "1/4", 0.1], "ERROR"),
    ("q", [0, "1/4", "1/2"], "PASS"),
    ("d", True, "ERROR"),
    ("d", "1/2", "PASS"),
], ids=["q 0.1", "q ints and strings", "d true", "d 1/2"])
def test_wdvv_check_reads_rationals_strictly(capsys, tmp_path, key, value, status):
    # Fraction() read 0.1 as its binary value and true as 1: each gave a
    # FAIL report with exit 1 where the input, not the potential, is wrong
    argv, data = _json_inputs("potential")
    data[key] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, report = run_cli(capsys, *argv, str(path))
    assert (code, report["status"]) == ({"PASS": 0, "ERROR": 2}[status], status)
    if status == "ERROR":
        assert report["error"].startswith(f"field {key!r} must be a rational string")


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


@pytest.mark.parametrize("state, path, message", [
    # a 2x2 V for three u_i
    ({"u": [[0, 0], [1, 0], [2, 0]], "V": [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]},
     [[[0.1, 0], [1, 0], [2, 0]]], "V has shape (2, 2), but u has 3 entries"),
    # a path vertex with two entries for three u_i
    ({"u": [[0, 0], [1, 0], [2, 0]],
      "V": [[[0, 0], [1, 0], [0, 0]], [[-1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]},
     [[[0.1, 0], [1, 0], [2, 0]], [[0.2, 0], [1, 0]]],
     "path vertex 1 has 2 entries, but u has 3"),
    # NaN and Infinity, which JSON files may spell out, are refused before
    # the first step, not reported as a step-size underflow
    ({"u": [[0, 0], [1, 0], [2, 0]],
      "V": [[[0, 0], [np.nan, 0], [0, 0]], [[-1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]},
     [[[0.1, 0], [1, 0], [2, 0]]], "V has a non-finite entry"),
    ({"u": [[0, 0], [1, 0], [2, 0]],
      "V": [[[0, 0], [1, 0], [0, 0]], [[-1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]},
     [[[0.1, 0], [1, 0], [2, np.nan]]], "path vertex 0 has a non-finite entry"),
    ({"u": [[0, 0], [1, 0], [2, 0]],
      "V": [[[0, 0], [1, 0], [0, 0]], [[-1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]},
     [[[0.1, 0], [1, 0], [2, 0]], [[0.1, 0], [np.inf, 0], [2, 0]]],
     "path vertex 1 has a non-finite entry"),
], ids=["V-shape", "vertex-length", "V-NaN", "vertex-NaN", "vertex-Infinity"])
def test_iso_integrate_malformed_input_is_an_error_report(capsys, tmp_path, state, path,
                                                          message):
    spath = tmp_path / "state.json"
    ppath = tmp_path / "path.json"
    spath.write_text(json.dumps(state), encoding="utf-8")
    ppath.write_text(json.dumps(path), encoding="utf-8")
    code, data = run_cli(capsys, "iso", "integrate", "--state", str(spath),
                         "--path", str(ppath))
    assert code == 2
    assert data["status"] == "ERROR"
    assert message in data["error"]
    assert "broadcast" not in data["error"]


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
    assert set(data["results"]) == {"final", "dlog_tau"}
    m = data["metrics"]
    assert set(m) == {"segments", "steps", "rejected", "integrate_s",
                      "min_order", "max_order"}
    assert m["segments"] == 2 and m["integrate_s"] >= 0
    # at tol 1e-10 a step starts at order 13 and stops by order 26
    assert 13 <= m["min_order"] <= m["max_order"] <= 26
    assert m["steps"] >= m["segments"] and m["rejected"] >= 0


def test_iso_integrate_out_of_taylor_steps_is_an_error_report(capsys, tmp_path, monkeypatch):
    # a cap of two Taylor steps per segment, below what the second segment
    # needs: the report names the segment and the s reached
    from frobenii import semisimple
    monkeypatch.setattr(semisimple, "MAX_SEGMENT_STEPS", 2)
    st = semisimple.IsoState(u=[0j, 1 + 0j, 2 + 0j],
                             V=np.array([[0, 5, 5], [-5, 0, 5], [-5, -5, 0]], dtype=complex))
    spath = tmp_path / "state.json"
    ppath = tmp_path / "path.json"
    spath.write_text(json.dumps(semisimple.state_to_dict(st)), encoding="utf-8")
    ppath.write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0], [2.1, 0.0]],
                                 [[0.0, 0.0], [0.2, 0.1], [2.1, 0.0]]]),
                     encoding="utf-8")
    code, data = run_cli(capsys, "iso", "integrate", "--state", str(spath),
                         "--path", str(ppath))
    assert code == 2
    assert data["status"] == "ERROR"
    assert data["error"].startswith("segment 2 (vertex 1 to vertex 2): 2 Taylor steps")
    assert "stuck at s=0." in data["error"]


def test_iso_integrate_of_a_v_that_is_not_skew_fails(capsys, tmp_path):
    # the flow keeps the spectrum of any V, but only a skew V stays skew
    V = [[0, 1, 2], [0, 0, 1], [0, 0, 0]]
    spath = tmp_path / "state.json"
    ppath = tmp_path / "path.json"
    spath.write_text(json.dumps({"u": [[0, 0], [1, 0], [2, 0]],
                                 "V": [[[x, 0] for x in row] for row in V]}),
                     encoding="utf-8")
    ppath.write_text(json.dumps([[[0.1, 0], [1.2, 0.1], [2, 0.3]]]), encoding="utf-8")
    code, data = run_cli(capsys, "iso", "integrate", "--state", str(spath),
                         "--path", str(ppath))
    assert code == 1 and data["status"] == "FAIL"
    assert data["residuals"]["spectral_drift"] < 1e-8
    assert data["residuals"]["skewness_drift"] > 0.1


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


def test_sing_an_states_its_metrics(capsys):
    # the A3 chain gives the catalog's A3, so its check counts what wdvv
    # check counts on A3
    _, sing = run_cli(capsys, "sing", "an", "--n", "3")
    _, wdvv = run_cli(capsys, "wdvv", "check", "A3")
    m = sing["metrics"]
    assert set(m) == {"structure_s", "wdvv1_s", "F_terms", "wdvv1_entries",
                      "wdvv1_products"}
    assert m["structure_s"] >= 0 and m["wdvv1_s"] >= 0
    assert m["F_terms"] == len(sing["results"]["potential"]["terms"])
    for key in ("wdvv1_entries", "wdvv1_products"):
        assert m[key] == wdvv["metrics"][key] > 0


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
    # an identically vanishing residual has the cleared numerator 0
    m = data["metrics"]
    assert m["samples"] == 8 and (m["num_bits"] == 0) == (mu1 is None)
    assert m["den_bits"] > 0


def test_pvi_verify_reports_metrics(capsys):
    from frobenii import painleve
    fam = painleve.FAMILIES["H3"]
    code, data = run_cli(capsys, "pvi", "verify", "H3", "--samples", "12")
    assert code == 0
    m = data["metrics"]
    assert set(m) == {"samples", "grid_s", "residual_s", "num_bits", "den_bits"}
    assert m["samples"] == 12 and m["grid_s"] >= 0 and m["residual_s"] >= 0
    rows = painleve.residual_table(fam, painleve.sample_parameters(fam, 12))
    assert m["den_bits"] == max(row[5].bit_length() for row in rows)
    assert m["num_bits"] == 0


def test_pvi_verify_csv(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    code, _ = run_cli(capsys, "pvi", "verify", "A3", "--samples", "5",
                      "--csv", str(path))
    assert code == 0
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "s,x,y,residual"
    assert len(rows) == 6


# The README commands that do no floating-point work, run one after another
# in a fresh interpreter (pytest itself has numpy loaded); then one numeric
# command, which loads numpy where it integrates.
_EXACT_COMMANDS = [
    ["catalog", "list"], ["catalog", "show", "H4"], ["wdvv", "check", "A3"],
    ["gw", "nk", "--max", "20"], ["gw", "elliptic", "--max", "40"],
    ["gw", "fit", "--max", "40"], ["stokes", "orbit", "A3-graph"],
    ["stokes", "braid", "CP2", "--word", "1 2 -1"], ["stokes", "cp2-monodromy"],
    ["pvi", "verify", "H3"], ["sing", "an", "--n", "3"],
]
# An unknown name ends in an ERROR report (exit 2), which loads no numpy either.
_ERROR_COMMAND = ["catalog", "show", "NOPE"]
_CHILD = """
import contextlib, io, json, sys
from frobenii import cli, frobenius, gwcp2, painleve, singularity, stokes
out = {"imported": "numpy" in sys.modules, "codes": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out["codes"].append(cli.main(argv))
out["exact"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    out["integrate"] = cli.main(["pvi", "integrate", "B3", "--s0", "3/4", "--s1", "9/10"])
out["numeric"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def test_exact_commands_run_without_numpy():
    src = str(Path(frobenii.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    argvs = _EXACT_COMMANDS + [_ERROR_COMMAND]
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * len(_EXACT_COMMANDS) + [2]
    assert not out["imported"] and not out["exact"]
    assert out["integrate"] == 0 and out["numeric"]


# Every report has one schema: the keys below, "error" on ERROR alone, and
# the parsed arguments as inputs (the orbit cap resolved to its default).
# The metrics block is empty on ERROR and where a command measures nothing.
_REPORT_KEYS = {"command", "inputs", "status", "results", "residuals", "metrics"}
_MEASURED = {"wdvv check", "gw nk", "gw elliptic", "gw fit", "stokes orbit",
             "pvi verify", "pvi integrate", "iso integrate", "sing an"}


def _parsed_inputs(argv):
    from frobenii import cli, stokes
    args = vars(cli.build_parser().parse_args(argv))
    if args["action"] == "orbit" and args["max_size"] is None:
        args["max_size"] = stokes.DEFAULT_ORBIT_CAP
    return {key: val for key, val in args.items()
            if key not in ("command", "action", "func")}


_SCHEMA_CASES = [
    *[(argv, "PASS") for argv in _EXACT_COMMANDS],
    (["pvi", "integrate", "B3", "--s0", "3/4", "--s1", "9/10"], "PASS"),
    (["catalog", "show", "CP2(3)"], "PASS"),
    (["pvi", "verify", "B3", "--samples", "7"], "FAIL"),
    (["stokes", "orbit", "A3-graph", "--max-size", "0"], "ERROR"),
]


@pytest.mark.parametrize("argv, status", _SCHEMA_CASES,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_every_report_has_one_schema(capsys, monkeypatch, argv, status):
    import dataclasses
    from fractions import Fraction
    from frobenii import painleve
    if status == "FAIL":
        fam = dataclasses.replace(painleve.FAMILIES["B3"], mu1=Fraction(-1, 4))
        monkeypatch.setitem(painleve.FAMILIES, "B3", fam)
    code, data = run_cli(capsys, *argv)
    assert data["status"] == status and code == {"PASS": 0, "FAIL": 1, "ERROR": 2}[status]
    assert set(data) == _REPORT_KEYS | ({"error"} if status == "ERROR" else set())
    assert data["command"] == " ".join(argv[:2])
    assert data["inputs"] == _parsed_inputs(argv)
    assert (data["metrics"] != {}) == (status != "ERROR" and data["command"] in _MEASURED)
    if argv[:2] == ["catalog", "show"]:
        assert data["results"]["name"] == argv[2]
    if status == "FAIL":
        assert data["inputs"]["samples"] == 7 and data["metrics"]["samples"] == 7


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("argv, status", _SCHEMA_CASES + [
    (["pvi", "integrate", "B3", "--s0", "3/4", "--s1", "9/10", f"--tol={tol}"], "ERROR")
    for tol in ("nan", "-inf", "inf")
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_every_report_is_strict_json(capsys, monkeypatch, argv, status):
    # NaN, Infinity and -Infinity are not JSON: a non-finite float is
    # written as the string "nan", "inf" or "-inf"
    import dataclasses
    from fractions import Fraction
    from frobenii import painleve
    if status == "FAIL":
        fam = dataclasses.replace(painleve.FAMILIES["B3"], mu1=Fraction(-1, 4))
        monkeypatch.setitem(painleve.FAMILIES, "B3", fam)
    main(argv)
    data = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert data["status"] == status
    if argv[-1].startswith("--tol="):
        assert data["inputs"]["tol"] == argv[-1][len("--tol="):]


def _readme_commands():
    """The `frobenii` lines of README's command-line block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("frobenii ")]


def test_readme_commands_parse():
    # parsed, not run: a renamed flag or subcommand fails here
    import shlex
    from frobenii import cli
    lines = _readme_commands()
    assert len(lines) >= 14
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert [args.command, args.action] == argv[:2]


def test_every_command_has_a_readme_line():
    # the reverse of test_readme_commands_parse: a new row of the command
    # table needs a line in README's block
    stated = {" ".join(line.split()[1:3]) for line in _readme_commands()}
    assert {name for name, _ in _subcommands()} <= stated


def test_every_command_row_has_its_own_handler():
    from frobenii import cli
    handlers = [handler for _, rows in cli.COMMANDS.values() for _, handler, _ in rows]
    assert len(set(handlers)) == len(handlers)


def test_only_the_report_reads_the_action():
    # a handler serves one row of the command table, so it never switches
    # on args.action; only _report states it
    import ast
    from frobenii import cli
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "action"}
    assert readers == {"_report"}


def test_pvi_family_choices_are_the_families():
    # the parser states the families as a literal, so that building it does
    # not import painleve; a new family must be added there too
    from frobenii import cli, painleve
    _, rows = cli.COMMANDS["pvi"]
    choices = {keywords["choices"] for _, _, arguments in rows
               for name, keywords in arguments if name == "family"}
    assert choices == {tuple(painleve.FAMILIES)}
