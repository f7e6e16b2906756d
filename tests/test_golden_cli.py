"""Golden-bytes gate for the command line.

Every command below must give the exit code, stdout and stderr (and, with
``--out``, the file contents) whose sha256 is recorded in ``golden_cli.json``.
Input documents are written under a temporary directory, whose path is
replaced by ``<tmp>`` before hashing.

Argument errors that argparse reports inside a subcommand are left out:
``test_cli.py`` checks their JSON error shape and the tests of each option
check its refusals.

To record the digests again after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from ihskit.cli import run
from ihskit.lattice import build_standard

GOLDEN = Path(__file__).with_name("golden_cli.json")

CATALOG = ("E8", "L2", "LK3", "Lambda_0", "Lambda_1", "Lambda_2", "Lambda_3",
           "Lambda_4", "Lambda_5", "Lambda_6", "Lambda_7", "Lambda_8",
           "Lambda_8U", "Lambda_9", "U", "Z-2", "Z6")
SERIES = ("todd", "sigmoid", "ch", "ch-dual", "eq-todd", "eq-ch")


def _unit(n: int, *indices: int) -> list[int]:
    return [sum(1 for i in indices if i == k) for k in range(n)]


def _pair(gram, u, v) -> int:
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def _word(gram, mirrors) -> list[list[int]]:
    """Integer matrix of s_{m_1} ... s_{m_k} for mirrors of norm +-1 or +-2."""
    n = len(gram)
    cols = []
    for j in range(n):
        v = _unit(n, j)
        for m in reversed(mirrors):
            norm = _pair(gram, m, m)
            assert norm in (1, -1, 2, -2)
            k = 2 * _pair(gram, v, m) // norm
            v = [a - k * b for a, b in zip(v, m)]
        cols.append(v)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def commands(tmp: Path) -> dict[str, list[str]]:
    """The gated command set; writes its input documents under ``tmp``."""

    def doc(name: str, value) -> str:
        path = tmp / name
        path.write_text(value if isinstance(value, str) else json.dumps(value))
        return str(path)

    cmds: dict[str, list[str]] = {}
    for label in CATALOG:
        cmds[f"lattice-{label}"] = ["lattice", "info", "--name", label]
    cmds["lattice-L2-text"] = ["lattice", "info", "--name", "L2", "--format", "text"]
    cmds["lattice-E8-scale3"] = ["lattice", "info", "--name", "E8", "--scale", "3"]
    cmds["lattice-U-scale-2-text"] = ["lattice", "info", "--name", "U", "--scale", "-2",
                                      "--format", "text"]
    inline = doc("inline.json", {"label": "A2x", "gram": [[2, -1], [-1, 4]]})
    cmds["lattice-file"] = ["lattice", "info", "--file", inline]
    cmds["lattice-file-scale"] = ["lattice", "info", "--file", inline, "--scale", "5"]

    e8, lam4, l2 = (build_standard(x).gram for x in ("E8", "Lambda_4", "L2"))
    words = {
        "E8": (e8, [_unit(8, 0), _unit(8, 1), _unit(8, 0, 2), _unit(8, 3)]),
        "Lambda_4": (lam4, [_unit(8, 0), _unit(8, 1), _unit(8, 2, 3), _unit(8, 7)]),
        "L2": (l2, [_unit(23, 0), _unit(23, 16, 17), _unit(23, 22), _unit(23, 4)]),
        # Non-involutions whose Cartan-Dieudonne mirrors have denominators
        # up to 81; the two rank-23 words take 10 mirrors each.
        "E8-coxeter": (e8, [_unit(8, i) for i in range(8)]),
        "Lambda_4-long": (lam4, [_unit(8, 0, 1, 2), _unit(8, 0, 2, 3), _unit(8, 1, 4, 5),
                                 _unit(8, 4), _unit(8, 0, 6, 7), _unit(8, 1, 2, 3),
                                 _unit(8, 5, 6), _unit(8, 0, 3, 7)]),
        "L2-coxeter": (l2, [_unit(23, i) for i in range(8)]
                       + [_unit(23, 16, 17), _unit(23, 22)]),
        "L2-mixed": (l2, [_unit(23, 0), _unit(23, 16, 17), _unit(23, 8), _unit(23, 18, 19),
                          _unit(23, 22), _unit(23, 1), _unit(23, 9), _unit(23, 20, 21),
                          _unit(23, 3), _unit(23, 12)]),
    }
    for name, (gram, mirrors) in words.items():
        label = name.split("-")[0]
        path = doc(f"iso-{name}.json", {"lattice": label, "matrix": _word(gram, mirrors)})
        cmds[f"isometry-info-{name}"] = ["isometry", "info", "--file", path]
        cmds[f"isometry-factor-{name}"] = ["isometry", "factor", "--file", path]
    swap = doc("iso-swap.json", {"lattice": "U", "matrix": [[0, 1], [1, 0]]})
    cmds["isometry-info-swap-text"] = ["isometry", "info", "--file", swap, "--format", "text"]
    for m0 in ("Zh", "U"):
        cmds[f"isometry-admissible-{m0}"] = ["isometry", "admissible", "--m0", m0]

    h, e = _unit(23, 16, 17), _unit(23, 22)
    flagship = doc("flagship.json", {"label": "M", "basis": [h, e]})
    rank3 = doc("rank3.json", {"label": "R3", "basis": [_unit(23, 0), _unit(23, 1),
                                                         _unit(23, 2)]})
    indefinite = doc("indef3.json", {"label": "I3", "basis": [h, e, _unit(23, 0)]})
    rank6 = doc("rank6.json", {"label": "M6", "basis": [_unit(23, i) for i in range(6)]})
    cmds["delta-flagship"] = ["delta", "enum", "--lattice", flagship, "--ambient", "L2"]
    cmds["delta-rank3"] = ["delta", "enum", "--lattice", rank3, "--ambient", "L2"]
    cmds["delta-indefinite3-text"] = ["delta", "enum", "--lattice", indefinite,
                                      "--ambient", "L2", "--format", "text"]
    cmds["delta-oversize"] = ["delta", "enum", "--lattice", rank6, "--ambient", "L2"]

    gens = doc("gens.json", {"generators": [[[1, 0], [0, -1]]]})
    chamber = ["--lattice", flagship, "--ambient", "L2", "--anchor", "1,0"]
    cmds["chambers-rank2"] = ["chambers", "rank2", *chamber, "--m0", "1,0"]
    cmds["chambers-rank2-text"] = ["chambers", "rank2", *chamber, "--format", "text"]
    cmds["chambers-rank2-rank3"] = ["chambers", "rank2", "--lattice", rank3,
                                    "--ambient", "L2", "--anchor", "1,0"]
    cmds["chambers-orbits"] = ["chambers", "orbits", *chamber, "--generators", gens]
    cmds["chambers-plot"] = ["chambers", "plot", *chamber]
    cmds["chambers-plot-out"] = ["chambers", "plot", *chamber, "--out", str(tmp / "c.svg")]

    for series in SERIES:
        for weight in (4, 12):
            cmds[f"forms-expand-{series}-{weight}"] = [
                "forms", "expand", "--series", series, "--weight", str(weight)]
    cmds["forms-expand-todd-text"] = ["forms", "expand", "--series", "todd",
                                      "--weight", "6", "--format", "text"]
    for check in ("product", "lemma33", "tables", "all"):
        cmds[f"forms-verify-{check}"] = ["forms", "verify", check]

    power = doc("power.json", {"kind": "power", "a": 1, "p": 2, "w": 2})
    finite = doc("finite.json", {"kind": "finite", "entries": [[2.5, 1], [7, 3]]})
    spectra = doc("spectra.json", {"1": {"kind": "finite", "entries": [[2.0, 1]]},
                                   "2": {"kind": "power", "a": 3, "p": 2, "w": 1}})
    ingredients = doc("ing.json", {"tau_iota": 2.0, "vol_X": 1.5, "A": 1.0,
                                   "tau_O_fix": 1.0, "vol_fix": 1.25,
                                   "vol_L2_H1": 0.75, "t": -17})
    cmds["zeta-power"] = ["zeta", "dzeta", "--spectrum", power]
    cmds["zeta-finite"] = ["zeta", "dzeta", "--spectrum", finite]
    cmds["torsion-eq"] = ["torsion", "eq", "--spectra", spectra, "--dim", "4"]
    cmds["invariant-assemble"] = ["invariant", "assemble", "--ingredients", ingredients]
    for t in range(-19, 22, 2):
        cmds[f"numerology-{t}"] = ["numerology", "--t", str(t)]
    cmds["numerology-out"] = ["numerology", "--t", "3", "--out", str(tmp / "n.json")]
    cmds["verify-all"] = ["verify-all"]
    cmds["verify-all-text"] = ["verify-all", "--format", "text"]

    # Malformed input and domain errors: structured JSON on stderr.
    bad_json = doc("bad.json", "not json")
    asym = doc("asym.json", {"gram": [[2, 1], [0, 2]]})
    degenerate = doc("degen.json", {"gram": [[1, 1], [1, 1]]})
    no_matrix = doc("nomatrix.json", {"lattice": "U"})
    not_iso = doc("notiso.json", {"lattice": "U", "matrix": [[1, 1], [0, 1]]})
    no_basis = doc("nobasis.json", {"label": "M"})
    mystery = doc("mystery.json", {"kind": "mystery"})
    missing = doc("missing.json", {"tau_iota": 1.0})
    bad_keys = doc("badkeys.json", {"x": {"kind": "power", "a": 1, "p": 2, "w": 1}})
    no_gens = doc("nogens.json", {"gens": []})
    cmds["err-lattice-no-selector"] = ["lattice", "info"]
    cmds["err-lattice-unknown"] = ["lattice", "info", "--name", "NOPE"]
    cmds["err-lattice-z0"] = ["lattice", "info", "--name", "Z0"]
    cmds["err-lattice-bad-json"] = ["lattice", "info", "--file", bad_json]
    cmds["err-lattice-asymmetric"] = ["lattice", "info", "--file", asym]
    cmds["err-lattice-degenerate"] = ["lattice", "info", "--file", degenerate]
    cmds["err-lattice-missing-file"] = ["lattice", "info", "--file", str(tmp / "absent.json")]
    cmds["err-isometry-no-matrix"] = ["isometry", "info", "--file", no_matrix]
    cmds["err-isometry-not-isometry"] = ["isometry", "info", "--file", not_iso]
    cmds["err-admissible-bogus"] = ["isometry", "admissible", "--m0", "bogus"]
    cmds["err-delta-no-basis"] = ["delta", "enum", "--lattice", no_basis, "--ambient", "L2"]
    dependent = doc("dependent.json", {"label": "D", "basis": [h, h]})
    cmds["err-delta-dependent"] = ["delta", "enum", "--lattice", dependent, "--ambient", "L2"]
    cmds["err-delta-no-ambient"] = ["delta", "enum", "--lattice", flagship]
    cmds["err-chambers-bad-anchor"] = ["chambers", "rank2", "--lattice", flagship,
                                       "--ambient", "L2", "--anchor", "zz"]
    cmds["err-chambers-negative-anchor"] = ["chambers", "rank2", "--lattice", flagship,
                                            "--ambient", "L2", "--anchor", "0,1"]
    cmds["err-chambers-no-generators"] = ["chambers", "orbits", *chamber,
                                          "--generators", no_gens]
    cmds["err-forms-unknown-series"] = ["forms", "expand", "--series", "bogus"]
    cmds["err-forms-unknown-check"] = ["forms", "verify", "bogus"]
    cmds["err-zeta-mystery"] = ["zeta", "dzeta", "--spectrum", mystery]
    cmds["err-zeta-bad-json"] = ["zeta", "dzeta", "--spectrum", bad_json]
    cmds["err-torsion-keys"] = ["torsion", "eq", "--spectra", bad_keys, "--dim", "4"]
    cmds["err-invariant-missing"] = ["invariant", "assemble", "--ingredients", missing]
    cmds["err-numerology-even"] = ["numerology", "--t", "2"]
    cmds["err-unknown-command"] = ["frobnicate"]
    cmds["err-no-command"] = []
    return cmds


def digest(argv: list[str], tmp: Path) -> str:
    result = run(argv)
    out_file = ""
    if "--out" in argv:
        out_path = Path(argv[argv.index("--out") + 1])
        out_file = out_path.read_text() if out_path.exists() else ""
    record = [result.exit_code, result.stdout, result.stderr, out_file]
    text = json.dumps(record).replace(str(tmp), "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_DIGESTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_set_is_complete(tmp_path):
    assert sorted(commands(tmp_path)) == sorted(GOLDEN_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_cli(name, tmp_path):
    argv = commands(tmp_path)[name]
    assert digest(argv, tmp_path) == GOLDEN_DIGESTS[name], argv


def record() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        return {name: digest(argv, tmp) for name, argv in commands(tmp).items()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
