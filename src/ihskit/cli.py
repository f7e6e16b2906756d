"""Deterministic command line front end.

Subcommands: lattice, isometry, delta, chambers, forms, zeta, torsion,
invariant, numerology, verify-all; ``COMMANDS`` lists each with its options
and handler.  Payload JSON goes to standard output (or ``--out``), human
diagnostics and JSON errors to the error stream, ``--help`` to standard
output.  Exit codes: 0 success, 1 domain error or failed verification,
2 malformed input or arguments.

Importing this module loads only the lattice layer: each handler imports
the domain module it needs on first use.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, NoReturn, Sequence

from . import jsonio
from . import lattice as lattice_mod
from .errors import IhskitError, InputError

if TYPE_CHECKING:
    from . import chambers as chambers_mod
    from . import forms as forms_mod
    from . import isometry as isometry_mod
    from . import torsion as torsion_mod

DEFAULT_TOL = 1e-10


@dataclass
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# Document parsing


def _parse_lattice_doc(doc: Any, what: str = "lattice") -> lattice_mod.Lattice:
    if isinstance(doc, str):
        return lattice_mod.build_standard(doc)
    if not isinstance(doc, dict) or "gram" not in doc:
        raise InputError(f"{what} document needs a catalog label or a 'gram' field")
    label = doc.get("label", "inline")
    if not isinstance(label, str):
        raise InputError(f"{what} label must be a string")
    return lattice_mod.Lattice(label, jsonio.parse_int_matrix(doc["gram"], f"{what} gram"))


def _load_sublattice(path: str, ambient_flag: str | None) -> lattice_mod.Sublattice:
    doc = jsonio.load_document(path)
    if not isinstance(doc, dict) or "basis" not in doc:
        raise InputError("sublattice document needs a 'basis' field "
                         "(rows in ambient coordinates)")
    if ambient_flag is not None:
        ambient = _parse_lattice_doc(ambient_flag, "ambient")
    elif "ambient" in doc:
        ambient = _parse_lattice_doc(doc["ambient"], "ambient")
    else:
        raise InputError("no ambient lattice: give --ambient or an 'ambient' field")
    basis = jsonio.parse_int_matrix(doc["basis"], "basis")
    label = doc.get("label", "M")
    return lattice_mod.Sublattice(ambient, basis, label=str(label))


def _load_isometry(path: str) -> isometry_mod.Isometry:
    from . import isometry as isometry_mod

    doc = jsonio.load_document(path)
    if not isinstance(doc, dict) or "matrix" not in doc or "lattice" not in doc:
        raise InputError("isometry document needs 'lattice' and 'matrix' fields")
    lat = _parse_lattice_doc(doc["lattice"])
    return isometry_mod.Isometry(lat, jsonio.parse_int_matrix(doc["matrix"], "matrix"))


def _parse_spectrum_doc(doc: Any) -> torsion_mod.WeightedSpectrum:
    from . import torsion as torsion_mod

    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("spectrum document needs a 'kind' field")
    kind = doc["kind"]
    if kind == "finite":
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise InputError("finite spectrum needs an 'entries' list")
        parsed = []
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InputError("finite spectrum entries are [lambda, weight] pairs")
            parsed.append((jsonio.parse_number(entry[0], "eigenvalue"),
                           jsonio.parse_number(entry[1], "weight")))
        return torsion_mod.FiniteSpectrum(tuple(parsed))
    if kind == "power":
        try:
            return torsion_mod.PowerSpectrum(a=jsonio.parse_number(doc["a"], "a"),
                                             p=jsonio.parse_number(doc["p"], "p"),
                                             w=jsonio.parse_number(doc["w"], "w"))
        except KeyError as exc:
            raise InputError(f"power spectrum needs field {exc.args[0]!r}") from exc
    raise InputError(f"unknown spectrum kind {kind!r}")


def _parse_vec2(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"{what} must be two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"{what} must be two comma-separated integers, got {text!r}") from exc


def _tolerance(text: str) -> float:
    """``--tol``: finite by the rule documents follow, and not negative."""
    tol = jsonio.parse_number(text, "--tol")
    if tol < 0:
        raise InputError(f"expected a non-negative --tol, got {text!r}")
    return tol


# ---------------------------------------------------------------------------
# Payload builders


def _rational_vector(vec: Sequence) -> list[dict]:
    out = []
    for x in vec:
        q = Fraction(x)
        out.append({"num": str(q.numerator), "den": str(q.denominator)})
    return out


def _completeness_payload(comp: chambers_mod.Completeness) -> dict:
    payload: dict[str, Any] = {"kind": comp.kind}
    if comp.bound is not None:
        payload["bound"] = comp.bound
    return payload


def _tag_payload(tag: chambers_mod.BoundaryTag) -> dict:
    payload: dict[str, Any] = {"kind": tag.kind}
    if tag.delta is not None:
        payload["delta"] = list(tag.delta)
    return payload


def _render_text(payload: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(value)}")
    else:
        lines.append(f"{pad}{_scalar_text(payload)}")
    return lines


def _scalar_text(value: Any) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return jsonio.dumps_payload(value)
    return str(value)


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns a payload dict; exit code decided later)


def _cmd_lattice(args) -> dict:
    if args.file:
        lat = _parse_lattice_doc(jsonio.load_document(args.file))
        if args.scale != 1:
            lat = lattice_mod.rescale(lat, args.scale)
    elif args.name:
        lat = lattice_mod.build_standard(args.name, scale=args.scale)
    else:
        raise InputError("lattice info needs --name or --file")
    return lattice_mod.lattice_summary(lat)


def _cmd_isometry_info(args) -> dict:
    from . import isometry as isometry_mod

    iso = _load_isometry(args.file)
    payload: dict[str, Any] = {
        "lattice": iso.lattice.label,
        "rank": iso.rank,
        "integral": iso.is_integral,
        "involution": iso.is_involution,
        "trace": iso.trace(),
        "spinor_norm": isometry_mod.spinor_norm(iso),
    }
    payload["in_o_plus"] = payload["spinor_norm"] == 1
    try:
        fix = isometry_mod.invariant_lattice(iso)
        payload["invariant_basis"] = [list(v) for v in fix.basis]
    except IhskitError:
        payload["invariant_basis"] = None
    return payload


def _cmd_isometry_factor(args) -> dict:
    from . import isometry as isometry_mod

    iso = _load_isometry(args.file)
    mirrors = isometry_mod.cartan_dieudonne(iso)
    return {
        "lattice": iso.lattice.label,
        "count": len(mirrors),
        "max_expected": 2 * iso.rank,
        "mirrors": [_rational_vector(m) for m in mirrors],
    }


def _cmd_isometry_admissible(args) -> dict:
    from . import isometry as isometry_mod

    iota_k3 = isometry_mod.catalog_nikulin(args.m0)
    adm = isometry_mod.make_admissible(iota_k3)
    return {
        "m0": args.m0,
        "t": adm.t,
        "trace": adm.iota.trace(),
        "spinor_norm": adm.spinor_norm,
        "invariant_rank": adm.sublattice.rank,
        "invariant_basis": [list(v) for v in adm.sublattice.basis],
        "induced_gram": [list(row) for row in adm.sublattice.induced().gram],
        "hyperbolic": True,  # make_admissible refuses any other invariant lattice
    }


def _cmd_delta(args) -> dict:
    from . import chambers as chambers_mod

    sub = _load_sublattice(args.lattice, args.ambient)
    bound = chambers_mod.DEFAULT_BOUND if args.bound is None else args.bound
    delta = chambers_mod.enumerate_delta(sub, bound=bound)
    return {
        "lattice": sub.label,
        "ambient": sub.ambient.label,
        "rank": sub.rank,
        "completeness": _completeness_payload(delta.completeness),
        "count": len(delta),
        "vectors": [{"coords": list(coords), "norm": norm}
                    for coords, norm in zip(delta.vectors, delta.norms)],
    }


def _chambers_common(args) -> tuple[chambers_mod.DeltaSet, tuple[int, int],
                                     list[chambers_mod.Chamber2]]:
    from . import chambers as chambers_mod

    sub = _load_sublattice(args.lattice, args.ambient)
    anchor = _parse_vec2(args.anchor, "--anchor")
    chambers_mod.check_rank2(sub)
    delta = chambers_mod.enumerate_delta(sub)
    return delta, anchor, chambers_mod.chambers_rank2(delta, anchor)


def _cmd_chambers_rank2(args) -> dict:
    from . import chambers as chambers_mod

    delta, anchor, chams = _chambers_common(args)
    m0 = _parse_vec2(args.m0, "--m0") if args.m0 else None
    entries = []
    for i, c in enumerate(chams):
        entry = {
            "index": i + 1,
            "ray_low": list(c.ray_low),
            "ray_high": list(c.ray_high),
            "tag_low": _tag_payload(c.tag_low),
            "tag_high": _tag_payload(c.tag_high),
            "interior_sample": list(c.interior_sample),
        }
        if m0 is not None:
            entry["natural"] = chambers_mod.is_natural(m0, c)
        entries.append(entry)
    return {
        "lattice": delta.sublattice.label,
        "anchor": list(anchor),
        "wall_count": len(delta),
        "chambers": entries,
    }


def _cmd_chambers_orbits(args) -> dict:
    from . import chambers as chambers_mod

    delta, _, chams = _chambers_common(args)
    doc = jsonio.load_document(args.generators)
    if not isinstance(doc, dict) or not isinstance(doc.get("generators"), list):
        raise InputError("generators document needs a 'generators' list")
    gens = [jsonio.parse_int_matrix(g, "generator") for g in doc["generators"]]
    orbits = chambers_mod.chamber_orbits(chams, delta, gens)
    return {
        "chamber_count": len(chams),
        "orbit_count": len(orbits),
        "orbits": [[i + 1 for i in orbit] for orbit in orbits],
    }


def _cmd_chambers_plot(args) -> tuple[dict, str]:
    from . import chambers as chambers_mod

    delta, _, chams = _chambers_common(args)
    svg = chambers_mod.chambers_svg(delta, chams)
    return {"chambers": len(chams), "svg_bytes": len(svg.encode())}, svg


def _cmd_forms_expand(args) -> dict:
    from . import forms as forms_mod

    cap = forms_mod.DEFAULT_CAP if args.weight is None else args.weight
    builders = {
        "todd": lambda: forms_mod.todd_series(cap=cap),
        "sigmoid": lambda: forms_mod.sigmoid_det_factor(cap=cap),
        "ch": lambda: forms_mod.ch_bundle("c1F", "c2F", cap=cap),
        "ch-dual": lambda: forms_mod.ch_bundle("c1F", "c2F", dual=True, cap=cap),
        "eq-todd": lambda: forms_mod.equivariant_todd(cap=cap),
        "eq-ch": lambda: forms_mod.equivariant_ch_cotangent(cap=cap),
    }
    if args.series not in builders:
        raise InputError(f"unknown series {args.series!r}; choose from {sorted(builders)}")
    element = builders[args.series]()
    return {
        "series": args.series,
        "weight": cap,
        "terms": [{"monomial": forms_mod.monomial_text(mono) or "1", "coeff": coeff}
                  for mono, coeff in element.terms()],
        "text": str(element),
    }


def _forms_checks(tol: float, which: str) -> list[dict]:
    import random

    from . import forms as forms_mod

    checks: list[dict] = []
    if which in ("product", "all"):
        report = forms_mod.verify_product_identity()
        rng = random.Random(20260823)
        worst = 0.0
        for _ in range(100):
            roots = [complex(rng.uniform(-0.1, 0.1)) for _ in range(4)]
            values = forms_mod.chern_values_from_roots(roots[:2], roots[2:])
            worst = max(worst, abs(report.lhs.evaluate(values) - report.rhs.evaluate(values)))
        checks.append({
            "name": "weight3_product_identity",
            "passed": report.passed and worst < tol,
            "residual": str(report.residual),
            "numeric_max_error": worst,
        })
    if which in ("tables", "all"):
        failures = [name for name, computed, expected in forms_mod.reference_checks()
                    if computed != expected]
        checks.append({
            "name": "series_reference_tables",
            "passed": not failures,
            "failures": failures,
        })
    return checks


def _cmd_forms_verify(args) -> dict:
    token = {"product": "product", "lemma33": "product",
             "tables": "tables", "all": "all"}.get(args.check)
    if token is None:
        raise InputError(f"unknown check {args.check!r}; choose product, tables or all")
    checks = _forms_checks(args.tol, token)
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


def _cmd_zeta(args) -> dict:
    from . import torsion as torsion_mod

    spectrum = _parse_spectrum_doc(jsonio.load_document(args.spectrum))
    return {"dzeta0": torsion_mod.zeta_prime_zero(spectrum)}


def _cmd_torsion(args) -> dict:
    from . import torsion as torsion_mod

    doc = jsonio.load_document(args.spectra)
    if not isinstance(doc, dict):
        raise InputError("spectra document must map degrees to spectra")
    spectra = {}
    keys: dict[int, str] = {}
    for key, value in doc.items():
        try:
            q = int(key, 10)
        except ValueError as exc:
            raise InputError(f"spectra keys must be integer degrees, got {key!r}") from exc
        if q in keys:
            raise InputError(f"spectra keys {keys[q]!r} and {key!r} name the same degree {q}")
        keys[q] = key
        spectra[q] = _parse_spectrum_doc(value)
    tau = torsion_mod.equivariant_torsion(spectra, args.dim)
    return {"dim": args.dim, "torsion": tau, "log": math.log(tau)}


def _cmd_invariant(args) -> dict:
    from . import torsion as torsion_mod

    doc = jsonio.load_document(args.ingredients)
    if not isinstance(doc, dict):
        raise InputError("ingredients document must be an object")
    keys = {"tau_iota", "vol_X", "tau_O_fix", "vol_fix", "vol_L2_H1", "t"}
    missing = sorted(keys - set(doc))
    if missing:
        raise InputError(f"ingredients document missing fields {missing}")
    ingredients = torsion_mod.TorsionIngredients(
        tau_iota=jsonio.parse_number(doc["tau_iota"], "tau_iota"),
        vol_x=jsonio.parse_number(doc["vol_X"], "vol_X"),
        tau_o_fix=jsonio.parse_number(doc["tau_O_fix"], "tau_O_fix"),
        vol_fix=jsonio.parse_number(doc["vol_fix"], "vol_fix"),
        vol_l2_h1=jsonio.parse_number(doc["vol_L2_H1"], "vol_L2_H1"),
        t=jsonio.parse_int(doc["t"], "t"),
        a_factor=jsonio.parse_number(doc.get("A", 1), "A"),
    )
    value = torsion_mod.assemble_invariant(ingredients)
    return {
        "invariant": value,
        "log": math.log(value),
        "exp_vol": torsion_mod.numerology(ingredients.t).exp_vol,
    }


def _cmd_numerology(args) -> dict:
    from . import torsion as torsion_mod

    return torsion_mod.numerology(args.t).to_dict()


def _cmd_verify_all(args) -> dict:
    from . import chambers as chambers_mod
    from . import torsion as torsion_mod

    checks: list[dict] = []
    checks.extend(_forms_checks(args.tol, "all"))

    l2 = lattice_mod.build_standard("L2")
    n = l2.rank
    h = tuple(1 if i in (16, 17) else 0 for i in range(n))
    e = tuple(1 if i == n - 1 else 0 for i in range(n))
    delta = chambers_mod.enumerate_delta(lattice_mod.Sublattice(l2, (h, e), label="Zh+Ze"))
    expected_walls = ((-2, -3), (-2, 3), (0, -1), (0, 1), (2, -3), (2, 3))
    walls_ok = (delta.vectors == expected_walls
                and delta.completeness.kind == "exact")
    chams = chambers_mod.chambers_rank2(delta, (1, 0))
    expected_rays = [((1, -1), (3, -2)), ((3, -2), (1, 0)),
                     ((1, 0), (3, 2)), ((3, 2), (1, 1))]
    rays_ok = [(c.ray_low, c.ray_high) for c in chams] == expected_rays
    natural = [i for i, c in enumerate(chams) if chambers_mod.is_natural((1, 0), c)]
    orbits = chambers_mod.chamber_orbits(chams, delta, [((1, 0), (0, -1))])
    checks.append({
        "name": "rank2_wall_and_chamber_example",
        "passed": bool(walls_ok and rays_ok and natural == [1, 2]
                       and orbits == [(0, 3), (1, 2)]),
        "walls": [list(v) for v in delta.vectors],
        "chambers": [[list(c.ray_low), list(c.ray_high)] for c in chams],
        "natural": [i + 1 for i in natural],
        "orbits": [[i + 1 for i in orbit] for orbit in orbits],
    })

    bad_t = []
    for t in range(-19, 22, 2):
        record = torsion_mod.numerology(t)
        if torsion_mod.omega_integral_from_parts(t) != record.omega_int:
            bad_t.append(t)
        if record.chi.denominator != 1 or record.dim_def.denominator != 1 \
                or record.dim_def < 0:
            bad_t.append(t)
    checks.append({
        "name": "characteristic_integral_all_t",
        "passed": not bad_t,
        "failed_t": sorted(set(bad_t)),
    })
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# Command table, parser and dispatch

_CHAMBER = (("--lattice", {"required": True}),
            ("--ambient", {"default": None}),
            ("--anchor", {"required": True, "help": 'positive-cone anchor, e.g. "1,0"'}))
_TOL = (("--tol", {"type": _tolerance, "default": DEFAULT_TOL,
                   "help": "tolerance for numeric oracles"}),)
# Every leaf command takes these after its own options.
_OUTPUT = (("--format", {"choices": ("json", "text"), "default": "json"}),
           ("--out", {"default": None, "help": "write payload to FILE"}))

# (command path, help, handler, options).  A group has no handler and no
# options and precedes its commands; a leaf's options are (flag, settings)
# pairs for ``add_argument``.
COMMANDS = (
    ("lattice", "catalog lookup and exact invariants", None, ()),
    ("lattice info", "signature, determinant, discriminant group", _cmd_lattice, (
        ("--name", {"help": "catalog label, e.g. U, E8, LK3, L2, Z-2, Lambda_3"}),
        ("--file", {"help": "JSON lattice document"}),
        ("--scale", {"type": int, "default": 1}))),
    ("isometry", "isometry checks, factorization, catalog involutions", None, ()),
    ("isometry info", "validate and summarize an isometry", _cmd_isometry_info,
     (("--file", {"required": True}),)),
    ("isometry factor", "reflection factorization over Q", _cmd_isometry_factor,
     (("--file", {"required": True}),)),
    ("isometry admissible", "build a catalog admissible involution", _cmd_isometry_admissible,
     (("--m0", {"required": True, "help": "catalog invariant part: Zh or U"}),)),
    ("delta", "wall-vector enumeration with certificates", None, ()),
    ("delta enum", "enumerate the wall set of an embedded sublattice", _cmd_delta, (
        ("--lattice", {"required": True, "help": "embedded sublattice JSON document"}),
        ("--ambient", {"default": None, "help": "ambient catalog label or inline doc"}),
        ("--bound", {"type": int, "help": "box bound for non-exact wall enumeration"}))),
    ("chambers", "rank-2 chamber decompositions", None, ()),
    ("chambers rank2", "chambers with boundary tags and naturality flags",
     _cmd_chambers_rank2, (*_CHAMBER, ("--m0", {
         "default": None, "help": 'rank-1 direction for naturality flags, e.g. "1,0"'}))),
    ("chambers orbits", "chamber orbits under 2x2 generators", _cmd_chambers_orbits,
     (*_CHAMBER, ("--generators", {
         "required": True, "help": "JSON document with a 'generators' list of 2x2 matrices"}))),
    ("chambers plot", "SVG drawing of the chambers", _cmd_chambers_plot, _CHAMBER),
    ("forms", "characteristic-form series and identity checks", None, ()),
    ("forms verify", "run symbolic identity checks", _cmd_forms_verify, (
        ("check", {"nargs": "?", "default": "all", "help": "product, tables, or all"}),
        *_TOL)),
    ("forms expand", "print a series with sorted monomials", _cmd_forms_expand, (
        ("--series", {"required": True,
                      "help": "todd | sigmoid | ch | ch-dual | eq-todd | eq-ch"}),
        ("--weight", {"type": int}))),
    ("zeta", "spectral zeta derivative at zero", None, ()),
    ("zeta dzeta", "zeta'(0) of a weighted spectrum", _cmd_zeta,
     (("--spectrum", {"required": True, "help": "spectrum JSON document"}),)),
    ("torsion", "equivariant torsion from explicit spectra", None, ()),
    ("torsion eq", "equivariant torsion of spectra by degree", _cmd_torsion, (
        ("--spectra", {"required": True,
                       "help": "JSON document mapping degree q to a spectrum"}),
        ("--dim", {"type": int, "required": True}))),
    ("invariant", "assemble the final invariant", None, ()),
    ("invariant assemble", "the invariant from its ingredients", _cmd_invariant,
     (("--ingredients", {"required": True}),)),
    ("numerology", "exact t-dependent constants", _cmd_numerology,
     (("--t", {"type": int, "required": True}),)),
    ("verify-all", "run every built-in identity check", _cmd_verify_all, _TOL),
)


class _Parser(argparse.ArgumentParser):
    """A usage error raises InputError, so it takes the JSON error path;
    subparsers are built by the same class."""

    def error(self, message: str) -> NoReturn:
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every command in ``COMMANDS``."""
    parser = _Parser(
        prog="ihskit",
        description="Exact lattice, chamber, characteristic-form and torsion "
                    "computations with deterministic JSON output.")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, text, handler, options in COMMANDS:
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, help=text)
        if handler is None:
            groups[path] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for flag, settings in (*options, *_OUTPUT):
            p.add_argument(flag, **settings)
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call: parsing reads it
    and never changes it."""
    return build_parser()


def _error(code: int, kind: str, message: str) -> CommandResult:
    err = jsonio.dumps_payload({"error": {"kind": kind, "message": message}})
    return CommandResult(code, "", err + "\n")


def run(argv: Sequence[str]) -> CommandResult:
    """One command: a result, its ``--help``, or a JSON error on stderr."""
    help_text = io.StringIO()
    try:
        with redirect_stdout(help_text):
            args = _parser().parse_args(list(argv))
        result = args.handler(args)
    except SystemExit:  # argparse exits only after printing --help
        return CommandResult(0, help_text.getvalue(), "")
    except InputError as exc:
        return _error(2, "input", str(exc))
    except IhskitError as exc:
        return _error(1, type(exc).__name__, str(exc))

    raw_text: str | None = None
    if isinstance(result, tuple):
        payload, raw_text = result
    else:
        payload = result

    try:
        if args.format == "text":
            rendered = "\n".join(_render_text(payload)) + "\n"
        else:
            rendered = jsonio.dumps_payload(payload) + "\n"
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        return _error(1, "ValueError", f"cannot write the result: {exc}")

    out_text = raw_text if raw_text is not None else rendered
    diagnostics = ""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out_text)
        except OSError as exc:
            return _error(2, "input", f"cannot write {args.out}: {exc}")
        diagnostics = f"wrote {args.out}\n"
        stdout = rendered if raw_text is not None else ""
    else:
        stdout = out_text

    code = 0
    if isinstance(payload, dict) and payload.get("all_passed") is False:
        code = 1
    return CommandResult(code, stdout, diagnostics)


def main() -> None:
    result = run(sys.argv[1:])
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    raise SystemExit(result.exit_code)
