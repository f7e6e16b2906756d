import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ihskit import cli, forms
from ihskit.cli import run


def payload(result):
    assert result.stdout, result.stderr
    return json.loads(result.stdout)


def write_flagship(tmp_path):
    doc = tmp_path / "M.json"
    h = [1 if i in (16, 17) else 0 for i in range(23)]
    e = [1 if i == 22 else 0 for i in range(23)]
    doc.write_text(json.dumps({"label": "M", "basis": [h, e]}))
    return str(doc)


# ---------------------------------------------------------------------------
# lattice


def test_lattice_info_by_name():
    r = run(["lattice", "info", "--name", "L2"])
    assert r.exit_code == 0
    p = payload(r)
    assert p["signature"] == [3, 20]
    assert p["det"] == 2
    assert p["discriminant_group"] == [2]


def test_lattice_info_by_file(tmp_path):
    doc = tmp_path / "lat.json"
    doc.write_text(json.dumps({"label": "A1", "gram": [[-2]]}))
    r = run(["lattice", "info", "--file", str(doc)])
    assert r.exit_code == 0
    assert payload(r)["det"] == -2


def test_lattice_info_big_determinant_encoded_as_string(tmp_path):
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"label": "B", "gram": [[2 ** 60, 0], [0, 1]]}))
    r = run(["lattice", "info", "--file", str(doc)])
    assert payload(r)["det"] == str(2 ** 60)


def test_lattice_info_band23_finishes(tmp_path):
    # A rank-23 band Gram matrix on which the unreduced Smith normal form
    # never finished.
    diag = [2, -3, 3, -4, 3, 2, -4, 0, 0, 3, -3, 1, -3, 1, -1, -2, 4, 1, -4, -1, -2, -4, -3]
    off = [0, -1, 0, -2, 2, 1, -1, 2, -1, -3, -1, -3, 3, -3, 1, -2, -1, 2, 3, 3, -1, 2]
    band = [[diag[i] if i == j else off[min(i, j)] if abs(i - j) == 1 else 0
             for j in range(23)] for i in range(23)]
    doc = tmp_path / "band23.json"
    doc.write_text(json.dumps({"label": "band23", "gram": band}))
    r = run(["lattice", "info", "--file", str(doc)])
    assert r.exit_code == 0
    p = payload(r)
    det = int(p["det"])
    assert det != 0
    assert math.prod(p["discriminant_group"]) == abs(det)


def test_lattice_unknown_name_exit_one():
    r = run(["lattice", "info", "--name", "NOPE"])
    assert r.exit_code == 1
    err = json.loads(r.stderr)
    assert err["error"]["kind"] == "LatticeError"


def test_lattice_missing_selector_exit_two():
    r = run(["lattice", "info"])
    assert r.exit_code == 2


def test_catalog_env_override(tmp_path, monkeypatch):
    alt = tmp_path / "cat.json"
    alt.write_text(json.dumps({"version": 1,
                               "lattices": [{"label": "Q", "gram": [[4]]}]}))
    monkeypatch.setenv("IHSKIT_CATALOG", str(alt))
    r = run(["lattice", "info", "--name", "Q"])
    assert r.exit_code == 0
    assert payload(r)["det"] == 4


# ---------------------------------------------------------------------------
# isometry


def test_isometry_info_and_factor(tmp_path):
    doc = tmp_path / "iso.json"
    doc.write_text(json.dumps({"lattice": {"label": "m", "gram": [[2, 0], [0, -2]]},
                               "matrix": [[1, 0], [0, -1]]}))
    r = run(["isometry", "info", "--file", str(doc)])
    p = payload(r)
    assert p["involution"] and p["spinor_norm"] == 1
    assert p["invariant_basis"] == [[1, 0]]

    r = run(["isometry", "factor", "--file", str(doc)])
    p = payload(r)
    assert p["count"] == 1
    assert p["count"] <= p["max_expected"]
    # Rational wire format: every coordinate as a num/den pair.
    assert p["mirrors"][0] == [{"num": "0", "den": "1"}, {"num": "2", "den": "1"}]


def test_isometry_rejects_non_isometry(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"lattice": "U", "matrix": [[1, 1], [0, 1]]}))
    r = run(["isometry", "info", "--file", str(doc)])
    assert r.exit_code == 1


def test_isometry_admissible():
    r = run(["isometry", "admissible", "--m0", "Zh"])
    p = payload(r)
    assert p["t"] == -17
    assert p["spinor_norm"] == 1
    assert p["induced_gram"] == [[2, 0], [0, -2]]
    assert run(["isometry", "admissible", "--m0", "bogus"]).exit_code == 1


# ---------------------------------------------------------------------------
# delta and chambers


def test_delta_enum_flagship(tmp_path):
    r = run(["delta", "enum", "--lattice", write_flagship(tmp_path),
             "--ambient", "L2"])
    p = payload(r)
    assert p["completeness"] == {"kind": "exact"}
    assert p["count"] == 6
    assert [v["coords"] for v in p["vectors"]] == [
        [-2, -3], [-2, 3], [0, -1], [0, 1], [2, -3], [2, 3]]
    assert [v["norm"] for v in p["vectors"]] == [-10, -10, -2, -2, -10, -10]


def test_delta_requires_ambient(tmp_path):
    doc = tmp_path / "M.json"
    doc.write_text(json.dumps({"basis": [[1, 0], [0, 1]]}))
    r = run(["delta", "enum", "--lattice", str(doc)])
    assert r.exit_code == 2


def test_delta_ambient_in_document(tmp_path):
    doc = tmp_path / "M.json"
    doc.write_text(json.dumps({"ambient": {"label": "A", "gram": [[-2]]},
                               "basis": [[1]]}))
    r = run(["delta", "enum", "--lattice", str(doc)])
    assert payload(r)["count"] == 2


def test_delta_refuses_oversize_box(tmp_path):
    # Six E8 simple roots at the default bound 50: 101^5 prefixes to scan.
    doc = tmp_path / "M6.json"
    basis = [[1 if j == i else 0 for j in range(23)] for i in range(6)]
    doc.write_text(json.dumps({"label": "M6", "basis": basis}))
    r = run(["delta", "enum", "--lattice", str(doc), "--ambient", "L2"])
    assert r.exit_code == 1
    assert r.stdout == ""
    err = json.loads(r.stderr)["error"]
    assert err["kind"] == "ChamberError"
    assert str(101 ** 5) in err["message"]


def test_delta_refuses_rank_deficient_basis_quickly(tmp_path):
    # Seven rows of rank 6: a JSON LatticeError, not a Smith normal form
    # that runs for minutes.
    rows = [[-4, -6, -4, 1, -6, 5], [0, -1, 4, 3, 2, 2], [3, 2, 0, -2, -3, 3],
            [-2, -1, -3, 3, 0, -3], [-1, 3, -3, 6, -1, -5], [-6, -2, 2, -3, 1, -6],
            [-1, -1, -4, 6, 2, 1]]
    doc = tmp_path / "M7.json"
    doc.write_text(json.dumps({"label": "M7", "basis": [row + [0] * 17 for row in rows]}))
    start = time.perf_counter()
    r = run(["delta", "enum", "--lattice", str(doc), "--ambient", "L2"])
    assert time.perf_counter() - start < 2.0
    assert r.exit_code == 1
    assert r.stdout == ""
    err = json.loads(r.stderr)["error"]
    assert err == {"kind": "LatticeError",
                   "message": "sublattice basis rows are linearly dependent"}


def test_chambers_rank2_payload(tmp_path):
    r = run(["chambers", "rank2", "--lattice", write_flagship(tmp_path),
             "--ambient", "L2", "--anchor", "1,0", "--m0", "1,0"])
    p = payload(r)
    assert [c["index"] for c in p["chambers"]] == [1, 2, 3, 4]
    assert [c["natural"] for c in p["chambers"]] == [False, True, True, False]
    assert p["chambers"][1]["ray_low"] == [3, -2]
    assert p["chambers"][0]["tag_low"]["kind"] == "isotropic"


def test_chambers_bad_anchor_exit_codes(tmp_path):
    m = write_flagship(tmp_path)
    assert run(["chambers", "rank2", "--lattice", m, "--ambient", "L2",
                "--anchor", "0,1"]).exit_code == 1  # negative square: domain
    assert run(["chambers", "rank2", "--lattice", m, "--ambient", "L2",
                "--anchor", "zz"]).exit_code == 2  # unparsable: input


@pytest.mark.parametrize("rank", [4, 6])
def test_chambers_refuse_rank_other_than_two_before_enumerating(rank, tmp_path, monkeypatch):
    from ihskit import chambers

    calls = []
    enumerate_delta = chambers.enumerate_delta
    monkeypatch.setattr(chambers, "enumerate_delta",
                        lambda *a, **k: calls.append(a) or enumerate_delta(*a, **k))
    doc = tmp_path / "M.json"
    basis = [[1 if j == i else 0 for j in range(23)] for i in range(rank)]
    doc.write_text(json.dumps({"label": "M", "basis": basis}))
    r = run(["chambers", "rank2", "--lattice", str(doc), "--ambient", "L2",
             "--anchor", "1,0"])
    assert r.exit_code == 1
    assert calls == []
    err = json.loads(r.stderr)["error"]
    assert err == {"kind": "ChamberError",
                   "message": "chamber decomposition requires a rank-2 sublattice"}


def test_chambers_orbits(tmp_path):
    gens = tmp_path / "G.json"
    gens.write_text(json.dumps({"generators": [[[1, 0], [0, -1]]]}))
    r = run(["chambers", "orbits", "--lattice", write_flagship(tmp_path),
             "--ambient", "L2", "--anchor", "1,0", "--generators", str(gens)])
    p = payload(r)
    assert p["orbit_count"] == 2
    assert p["orbits"] == [[1, 4], [2, 3]]


@pytest.mark.parametrize("generators", [3, None, "x", {"a": 1}])
def test_chambers_orbits_needs_a_generators_list(generators, tmp_path):
    gens = tmp_path / "G.json"
    gens.write_text(json.dumps({"generators": generators}))
    r = run(["chambers", "orbits", "--lattice", write_flagship(tmp_path),
             "--ambient", "L2", "--anchor", "1,0", "--generators", str(gens)])
    assert (r.exit_code, r.stdout) == (2, "")
    assert json.loads(r.stderr)["error"] == {
        "kind": "input", "message": "generators document needs a 'generators' list"}


def test_chambers_plot_deterministic(tmp_path):
    m = write_flagship(tmp_path)
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out1, out2):
        r = run(["chambers", "plot", "--lattice", m, "--ambient", "L2",
                 "--anchor", "1,0", "--out", str(out)])
        assert r.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<svg")


# ---------------------------------------------------------------------------
# forms


def test_forms_verify_all_green():
    r = run(["forms", "verify", "all"])
    p = payload(r)
    assert r.exit_code == 0
    assert p["all_passed"] is True
    assert {c["name"] for c in p["checks"]} == {
        "weight3_product_identity", "series_reference_tables"}


def test_forms_verify_alias():
    p = payload(run(["forms", "verify", "lemma33"]))
    assert [c["name"] for c in p["checks"]] == ["weight3_product_identity"]
    assert p["all_passed"] is True


def test_forms_verify_unknown_token():
    assert run(["forms", "verify", "bogus"]).exit_code == 2


def test_forms_expand():
    p = payload(run(["forms", "expand", "--series", "todd", "--weight", "2"]))
    assert p["terms"][0] == {"monomial": "1", "coeff": 1}
    coeffs = {t["monomial"]: t["coeff"] for t in p["terms"]}
    assert coeffs["c1F"] == {"num": "1", "den": "2"}
    assert run(["forms", "expand", "--series", "bogus"]).exit_code == 2


@pytest.mark.parametrize("weight, code", [
    (-1, 2), (0, 0), (forms.MAX_WEIGHT, 0), (forms.MAX_WEIGHT + 1, 2), (10 ** 6, 2)])
def test_forms_expand_weight_is_bounded(weight, code):
    r = run(["forms", "expand", "--series", "todd", "--weight", str(weight)])
    assert r.exit_code == code
    if code:
        assert r.stdout == ""
        assert json.loads(r.stderr)["error"] == {
            "kind": "input",
            "message": f"weight cap must be between 0 and {forms.MAX_WEIGHT}, got {weight}"}
    else:
        assert payload(r)["weight"] == weight


def test_forms_expand_text_format():
    r = run(["forms", "expand", "--series", "sigmoid", "--weight", "1",
             "--format", "text"])
    assert "1/4" in r.stdout and "c1N" in r.stdout


# ---------------------------------------------------------------------------
# zeta, torsion, invariant, numerology


def test_zeta_and_torsion(tmp_path):
    sdoc = tmp_path / "s.json"
    sdoc.write_text(json.dumps({"kind": "power", "a": 1, "p": 2, "w": 2}))
    p = payload(run(["zeta", "dzeta", "--spectrum", str(sdoc)]))
    assert abs(p["dzeta0"] + 2 * math.log(2 * math.pi)) < 1e-9

    spectra = tmp_path / "sp.json"
    spectra.write_text(json.dumps(
        {"1": {"kind": "finite", "entries": [[math.e, 1]]}}))
    p = payload(run(["torsion", "eq", "--spectra", str(spectra), "--dim", "4"]))
    assert abs(p["log"] + 1.0) < 1e-12


def test_torsion_refuses_a_degree_spelled_twice(tmp_path):
    # int("01") == int("1"): the second spectrum used to replace the first.
    spectra = tmp_path / "sp.json"
    spectra.write_text(json.dumps({"1": {"kind": "finite", "entries": [[math.e, 1]]},
                                   "01": {"kind": "finite", "entries": [[2.0, 1]]}}))
    r = run(["torsion", "eq", "--spectra", str(spectra), "--dim", "4"])
    assert (r.exit_code, r.stdout) == (2, "")
    error = json.loads(r.stderr)["error"]
    assert error["kind"] == "input"
    assert "'1'" in error["message"] and "'01'" in error["message"]


def test_zeta_bad_spectrum(tmp_path):
    sdoc = tmp_path / "s.json"
    sdoc.write_text(json.dumps({"kind": "mystery"}))
    assert run(["zeta", "dzeta", "--spectrum", str(sdoc)]).exit_code == 2
    sdoc.write_text("not json")
    assert run(["zeta", "dzeta", "--spectrum", str(sdoc)]).exit_code == 2


def test_invariant_assemble(tmp_path):
    ing = tmp_path / "ing.json"
    ing.write_text(json.dumps({"tau_iota": 2.0, "vol_X": 1.5, "A": 1.0,
                               "tau_O_fix": 1.0, "vol_fix": 1.0,
                               "vol_L2_H1": 1.0, "t": -17}))
    p = payload(run(["invariant", "assemble", "--ingredients", str(ing)]))
    assert p["invariant"] == pytest.approx(2.0 * 1.5 ** 27)
    assert p["exp_vol"] == 27

    ing.write_text(json.dumps({"tau_iota": 1.0}))
    assert run(["invariant", "assemble", "--ingredients", str(ing)]).exit_code == 2


ING = {"tau_iota": 1.5, "vol_X": 2.0, "tau_O_fix": 0.7, "vol_fix": 1.1,
       "vol_L2_H1": 0.9, "t": 5}


@pytest.mark.parametrize("command, flag, doc, code, kind", [
    # Non-finite input numbers: input errors.
    (["invariant", "assemble"], "ingredients", dict(ING, tau_iota="nan"), 2, "input"),
    (["invariant", "assemble"], "ingredients", dict(ING, vol_X="-Infinity"), 2, "input"),
    (["invariant", "assemble"], "ingredients",
     dict(ING, vol_fix={"num": "1" + "0" * 400, "den": "1"}), 2, "input"),
    (["torsion", "eq"], "spectra", {"1": {"kind": "finite", "entries": [["inf", 1]]}},
     2, "input"),
    (["zeta", "dzeta"], "spectrum", {"kind": "power", "a": "nan", "p": 2, "w": 1}, 2, "input"),
    # Finite input whose result leaves the float range: domain errors.
    (["invariant", "assemble"], "ingredients", dict(ING, tau_iota=1e300, tau_O_fix=1e-200),
     1, "TorsionError"),
    (["invariant", "assemble"], "ingredients", dict(ING, tau_iota=1e-300, tau_O_fix=1e200),
     1, "TorsionError"),
    (["torsion", "eq"], "spectra", {"2": {"kind": "finite", "entries": [[1e300, 1]]}},
     1, "TorsionError"),
    (["torsion", "eq"], "spectra", {"2": {"kind": "finite", "entries": [[1e-300, 1]]}},
     1, "TorsionError"),
    (["zeta", "dzeta"], "spectrum", {"kind": "finite", "entries": [[1e300, 1e308]]},
     1, "TorsionError"),
])
def test_analytic_commands_refuse_non_finite_numbers(command, flag, doc, code, kind, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    extra = ["--dim", "2"] if flag == "spectra" else []
    r = run([*command, f"--{flag}", str(path), *extra])
    assert (r.exit_code, r.stdout) == (code, "")
    assert json.loads(r.stderr)["error"]["kind"] == kind


def test_numerology_json_record():
    p = payload(run(["numerology", "--t", "-17"]))
    assert list(p) == ["t", "c1sq", "chi", "c2", "dim_def", "omega_int",
                       "exp_vol", "coef_curv16", "coef_curv8", "coef_prop32",
                       "coef_l34_plus", "coef_l34_minus"]
    assert p["c1sq"] == 288
    assert p["coef_prop32"] == {"num": "17", "den": "2"}
    assert run(["numerology", "--t", "2"]).exit_code == 1


# ---------------------------------------------------------------------------
# verify-all and plumbing


def test_verify_all_green_and_deterministic():
    r1, r2 = run(["verify-all"]), run(["verify-all"])
    assert r1.exit_code == 0
    assert r1.stdout == r2.stdout
    p = payload(r1)
    assert p["all_passed"] is True
    assert [c["name"] for c in p["checks"]] == [
        "weight3_product_identity", "series_reference_tables",
        "rank2_wall_and_chamber_example", "characteristic_integral_all_t"]


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "n.json"
    r = run(["numerology", "--t", "1", "--out", str(out)])
    assert r.exit_code == 0
    assert json.loads(out.read_text())["chi"] == 1


@pytest.mark.parametrize("argv", [
    ["verify-all", "--bound", "5"],
    ["verify-all", "--bound", "0"],
    ["chambers", "plot", "--lattice", "M.json", "--anchor", "1,0", "--bound", "5"],
    ["lattice", "info", "--name", "U", "--tol", "1e-3"],
    ["numerology", "--t", "1", "--tol", "1e-3"],
])
def test_removed_options_exit_two(argv):
    r = run(argv)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "unrecognized arguments" in r.stderr


def test_tol_kept_where_read():
    assert run(["forms", "verify", "product", "--tol", "1e-12"]).exit_code == 0
    assert run(["verify-all", "--tol", "0"]).exit_code == 1


@pytest.mark.parametrize("command", [["verify-all"], ["forms", "verify", "product"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "Infinity", "-1e-12", "abc"])
def test_tol_must_be_finite_and_non_negative(command, tol):
    # inf would pass every numeric check and nan fail every one.
    r = run([*command, "--tol", tol])
    assert (r.exit_code, r.stdout) == (2, "")
    err = json.loads(r.stderr)["error"]
    assert err["kind"] == "input" and "--tol" in err["message"]


@pytest.mark.parametrize("command", [["lattice", "info", "--file"],
                                     ["zeta", "dzeta", "--spectrum"]])
@pytest.mark.parametrize("data, reason", [
    (b'{"gram": [[2]]}\xff', "is not UTF-8 text"),
    (b'{"gram": [[1' + b"0" * 5000 + b']]}', "Exceeds the limit"),
    (b"[" * 100000 + b"]" * 100000, "maximum recursion depth"),
])
def test_unreadable_documents_are_input_errors(command, data, reason, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_bytes(data)
    r = run([*command, str(doc)])
    assert (r.exit_code, r.stdout) == (2, "")
    err = json.loads(r.stderr)["error"]
    assert err["kind"] == "input" and str(doc) in err["message"] and reason in err["message"]


def test_result_too_long_to_print_is_a_json_error(tmp_path):
    # Each entry prints (3001 digits); the determinant, 6001 digits, does not.
    doc = tmp_path / "big.json"
    big = 10 ** 3000
    doc.write_text(json.dumps({"gram": [[big, 0], [0, -big]]}))
    for fmt in ("json", "text"):
        r = run(["lattice", "info", "--file", str(doc), "--format", fmt])
        assert (r.exit_code, r.stdout) == (1, "")
        assert json.loads(r.stderr)["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("argv, code, stream", [
    (["numerology", "--t", "1"], 0, "stdout"),
    (["--help"], 0, "stdout"),
    (["verify-all", "--tol", "0"], 1, "stdout"),
    (["lattice", "info", "--name", "NOPE"], 1, "stderr"),
    (["numerology", "--t", "abc"], 2, "stderr"),
])
def test_main_exit_codes_and_streams(argv, code, stream):
    # The console script: the exit code is the process status, the payload or
    # --help goes to stdout, a JSON error to stderr and nothing to the other.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", "from ihskit.cli import main; main()", *argv],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == code
    text = getattr(out, stream)
    assert text and not getattr(out, "stderr" if stream == "stdout" else "stdout")
    if argv == ["--help"]:
        assert text.startswith("usage: ihskit")
    elif stream == "stdout":
        assert json.loads(text)
    else:
        assert list(json.loads(text)) == ["error"]


def test_unknown_command_exit_two():
    assert run(["frobnicate"]).exit_code == 2
    assert run([]).exit_code == 2


@pytest.mark.parametrize("argv, message", [
    (["frobnicate"], "ihskit: argument command: invalid choice: 'frobnicate'"),
    ([], "ihskit: the following arguments are required: command"),
    (["numerology", "--t", "abc"], "ihskit numerology: argument --t: invalid int value: 'abc'"),
    (["lattice"], "ihskit lattice: the following arguments are required: subcommand"),
    (["delta", "enum"], "ihskit delta enum: the following arguments are required: --lattice"),
])
def test_argument_errors_are_json_errors(argv, message):
    r = run(argv)
    assert (r.exit_code, r.stdout) == (2, "")
    err = json.loads(r.stderr)
    assert list(err) == ["error"] and err["error"]["kind"] == "input"
    assert err["error"]["message"].startswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["lattice", "-h"], ["numerology", "--help"],
                                  ["forms", "expand", "--help"]])
def test_help_is_captured_on_stdout(argv, capsys):
    r = run(argv)
    assert (r.exit_code, r.stderr) == (0, "")
    assert r.stdout.startswith("usage: ihskit")
    assert capsys.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# The parser and the import graph


def test_run_builds_one_parser_per_process(monkeypatch):
    run(["numerology", "--t", "1"])  # the first call in the process may build it
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    for argv in (["numerology", "--t", "3"], ["lattice", "info", "--name", "U"],
                 ["frobnicate"], ["forms", "expand", "--help"], ["verify-all", "--tol", "nan"]):
        run(argv)
    assert built == []
    cli.build_parser()  # the counter sees a build: the top parser plus one per table entry
    assert len(built) == 1 + len(cli.COMMANDS)


def test_import_cli_leaves_the_domain_modules_unloaded():
    # The benchmark's set-up probe calls build_parser() and lattice_mod too.
    code = ("import json, sys\n"
            "import ihskit.cli as cli\n"
            "cli.lattice_mod.build_standard('L2')\n"
            "cli.build_parser()\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('ihskit'))\n"
            "cli.run(['numerology', '--t', '1'])\n"
            "print(json.dumps([loaded, 'ihskit.torsion' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    loaded, torsion_after_run = json.loads(out.stdout)
    assert loaded == ["ihskit", "ihskit.cli", "ihskit.errors", "ihskit.exactmat",
                      "ihskit.jsonio", "ihskit.lattice"]
    assert torsion_after_run


# ---------------------------------------------------------------------------
# Fuzzing argv: every call ends in a result or a JSON error


FUZZ_DOCS = {
    "sub.json": {"label": "M", "basis": [[1 if i in (16, 17) else 0 for i in range(23)],
                                         [1 if i == 22 else 0 for i in range(23)]]},
    "sub3.json": {"label": "R3", "basis": [[1 if i == k else 0 for i in range(23)]
                                           for k in range(3)]},
    "lat.json": {"label": "A2x", "gram": [[2, -1], [-1, 4]]},
    "iso.json": {"lattice": "U", "matrix": [[0, 1], [1, 0]]},
    "spectrum.json": {"kind": "power", "a": 1, "p": 2, "w": 2},
    "spectra.json": {"1": {"kind": "finite", "entries": [[2.0, 1]]}},
    "ing.json": {"tau_iota": 2.0, "vol_X": 1.5, "tau_O_fix": 1.0, "vol_fix": 1.25,
                 "vol_L2_H1": 0.75, "t": -17},
    "gens.json": {"generators": [[[1, 0], [0, -1]]]},
    "bad.json": "not json",
}
# Values that make each option valid, so that a fair share of calls succeed.
FUZZ_GOOD = {
    "--name": ["L2", "U", "E8"], "--file": ["lat.json", "iso.json"], "--scale": ["1", "-2"],
    "--m0": ["Zh", "U", "1,0"], "--lattice": ["sub.json", "sub3.json"], "--ambient": ["L2"],
    "--bound": ["5", "50"], "--anchor": ["1,0"], "--generators": ["gens.json"],
    "check": ["product", "tables", "all"], "--tol": ["1e-10", "0"],
    "--series": ["todd", "eq-ch", "ch-dual"], "--weight": ["0", "4", "12"],
    "--spectrum": ["spectrum.json"], "--spectra": ["spectra.json"], "--dim": ["2", "4"],
    "--ingredients": ["ing.json"], "--t": ["-17", "1", "21"], "--format": ["json", "text"],
    "--out": ["out.json"],
}
FUZZ_JUNK = ["-1", "0", "33", str(10 ** 6), str(2 ** 80), str(-2 ** 80), "nan", "inf",
             "-inf", "1e-3", "abc", "", "0,1", "zz", "-h", "--bogus", "bad.json", "absent.json",
             "no-dir/out.json", "lat.json", "Z" + "1" * 5000]
FUZZ_OPTIONS = {path: [flag for flag, _ in options] + ["--format", "--out"]
                for path, _, handler, options in cli.COMMANDS if handler is not None}


@st.composite
def fuzz_argv(draw) -> list[str]:
    """A command path from the table, most of its options with mostly good
    values, and sometimes a few junk tokens after them."""
    path = draw(st.sampled_from([path for path, *_ in cli.COMMANDS] + ["", "frobnicate"]))
    argv = path.split()
    good_or_junk = st.sampled_from(["good"] * 3 + ["junk"])
    for flag in FUZZ_OPTIONS.get(path, []):
        if draw(good_or_junk) == "good":
            pool = FUZZ_GOOD[flag] if draw(good_or_junk) == "good" else FUZZ_JUNK
            value = draw(st.sampled_from(pool))
            argv += [value] if flag == "check" else [flag, value]
    junk = st.sampled_from(sorted(FUZZ_GOOD)) | st.sampled_from(FUZZ_JUNK)
    return argv + draw(st.lists(junk, max_size=2)) if draw(good_or_junk) == "junk" else argv


def _strict_json(text: str):
    return json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))


def _check_output(text: str, argv: list[str]):
    """Help, an SVG plot, a text rendering, or else strict JSON."""
    if text.startswith("usage: ihskit"):
        assert "-h" in argv, argv
    elif text.startswith("<svg"):
        assert argv[:2] == ["chambers", "plot"], argv
    elif text and "text" not in argv:
        return _strict_json(text)
    return None


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=fuzz_argv())
def test_fuzz_argv_gives_a_result_or_a_json_error(argv, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    for name, doc in FUZZ_DOCS.items():
        (tmp / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [str(tmp / t) if t.endswith(".json") else t for t in argv]
    cwd = os.getcwd()
    os.chdir(tmp)  # a junk --out value is a relative path
    try:
        r = run(argv)
    finally:
        os.chdir(cwd)
    _assert_result_or_json_error(r, argv, tmp)


def _assert_result_or_json_error(r, argv: list[str], tmp: Path):
    """Exit 0 with a result, exit 1 only for a verification that ran and
    failed, or else exit 1 or 2 with a JSON error on stderr and nothing on
    stdout."""
    assert r.exit_code in (0, 1, 2), argv
    if r.exit_code == 0 or r.stdout or r.stderr.startswith("wrote "):
        # A result; exit 1 only for a verification that ran and failed.
        payload = _check_output(r.stdout, argv)
        if r.stderr:
            assert r.stderr.startswith("wrote "), argv
            written = _check_output((tmp / r.stderr[len("wrote "):-1]).read_text(), argv)
            payload = payload or written
        if r.exit_code:
            assert r.exit_code == 1 and "--tol" in argv, argv
            assert payload is None or payload["all_passed"] is False, argv
    else:
        err = _strict_json(r.stderr)
        assert list(err) == ["error"] and isinstance(err["error"]["message"], str), argv


# ---------------------------------------------------------------------------
# Fuzzing documents: each file a command reads, mutated


HUGE = "HUGE-LITERAL"  # written as an integer literal over Python's 4300-digit limit
DOC_COMMANDS = {  # command path: (file option, other arguments, a valid document)
    "lattice info": ("--file", [], {"label": "A", "gram": [[2, -1, 0], [-1, 4, 1], [0, 1, -2]]}),
    "isometry info": ("--file", [], FUZZ_DOCS["iso.json"]),
    "isometry factor": ("--file", [], {"lattice": {"label": "D", "gram": [[2, 1], [1, -2]]},
                                       "matrix": [[-1, 0], [0, -1]]}),
    "delta enum": ("--lattice", ["--bound", "3"], dict(FUZZ_DOCS["sub.json"], ambient="L2")),
    "chambers rank2": ("--lattice", ["--anchor", "1,0", "--m0", "1,0"],
                       dict(FUZZ_DOCS["sub.json"], ambient="L2")),
    "chambers plot": ("--lattice", ["--anchor", "1,0"], dict(FUZZ_DOCS["sub.json"], ambient="L2")),
    "chambers orbits": ("--generators",
                        ["--lattice", "sub.json", "--ambient", "L2", "--anchor", "1,0"],
                        FUZZ_DOCS["gens.json"]),
    "zeta dzeta": ("--spectrum", [], {"kind": "finite", "entries": [[2.0, 1.5], [3.0, -0.5]]}),
    "torsion eq": ("--spectra", ["--dim", "4"],
                   {"1": FUZZ_DOCS["spectrum.json"],
                    "2": {"kind": "finite", "entries": [[2, 1]]}}),
    "invariant assemble": ("--ingredients", [], dict(FUZZ_DOCS["ing.json"], A=1.0)),
}
FUZZ_LEAVES = [None, True, "x", "", "1,0", "U", "Z-2", "Z" + "1" * 5000, "finite", "nan",
               "1e999", [], {}, [[]], 0, -1, 3, 2.5, 1e308, 2 ** 80, -2 ** 80, 10 ** 3000,
               HUGE, {"num": "1", "den": "0"}, {"num": "2", "den": "3"}]
DELETE = object()


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _mutate(value, path, leaf):
    """``value`` with the entry at ``path`` replaced by ``leaf`` or deleted."""
    if not path:
        return None if leaf is DELETE else leaf
    copy = dict(value) if isinstance(value, dict) else list(value)
    if leaf is DELETE and len(path) == 1:
        del copy[path[0]]
    else:
        copy[path[0]] = _mutate(value[path[0]], path[1:], leaf)
    return copy


@st.composite
def fuzz_document(draw) -> tuple[str, bytes]:
    """A command that reads a file, and that file: its valid document with a
    few entries replaced by wrong types, nulls or huge integers, or deleted,
    then sometimes spliced with raw bytes, truncated or deeply nested."""
    command = draw(st.sampled_from(sorted(DOC_COMMANDS)))
    doc = DOC_COMMANDS[command][2]
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _mutate(doc, path, draw(st.sampled_from([DELETE, *FUZZ_LEAVES])))
    data = json.dumps(doc).replace(f'"{HUGE}"', "1" + "0" * 5000).encode()
    cut = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(["none"] * 6 + ["bytes", "truncate", "nest"]))
    if edit == "bytes":
        data = data[:cut] + draw(st.binary(min_size=1, max_size=4)) + data[cut:]
    elif edit == "truncate":
        data = data[:cut]
    elif edit == "nest":
        data = b"[" * 50000 + data + b"]" * 50000
    return command, data


FLAGSHIP_2_80 = dict(DOC_COMMANDS["delta enum"][2], basis=[
    [2 ** 80 if i == 16 else int(i == 17) for i in range(23)],
    [int(i == 22) for i in range(23)]])


@settings(max_examples=800, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=fuzz_document())
# Inputs that crashed or hung the program before they were refused or solved.
@example(case=("chambers orbits", b'{"generators": 3}'))
@example(case=("chambers orbits", b'{"generators": null}'))
@example(case=("lattice info", b'{"gram": [[2]]}\xff'))
@example(case=("zeta dzeta", b'\xfe{"kind": "power", "a": 1, "p": 2, "w": 2}'))
@example(case=("lattice info", b'{"gram": [[1' + b"0" * 5000 + b']]}'))
@example(case=("zeta dzeta", b'{"kind": "power", "a": 1' + b"0" * 5000 + b', "p": 2, "w": 2}'))
@example(case=("lattice info", json.dumps({"gram": [[10 ** 3000, 0], [0, -10 ** 3000]]}).encode()))
@example(case=("delta enum", json.dumps(FLAGSHIP_2_80).encode()))
def test_fuzz_documents_give_a_result_or_a_json_error(case, tmp_path_factory):
    command, data = case
    flag, extra, _ = DOC_COMMANDS[command]
    tmp = tmp_path_factory.mktemp("fuzzdoc")
    (tmp / "sub.json").write_text(json.dumps(FUZZ_DOCS["sub.json"]))
    (tmp / "doc.json").write_bytes(data)
    argv = [*command.split(), flag, str(tmp / "doc.json"),
            *(str(tmp / t) if t.endswith(".json") else t for t in extra)]
    _assert_result_or_json_error(run(argv), argv, tmp)


def test_fuzz_documents_cover_every_command_that_reads_a_file():
    file_options = {"--file", "--lattice", "--generators", "--spectrum", "--spectra",
                    "--ingredients"}
    assert set(DOC_COMMANDS) == {path for path, _, _, options in cli.COMMANDS
                                 if file_options & {flag for flag, _ in options}}
