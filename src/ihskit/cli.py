"""Deterministic command line front end.

Subcommands: lattice, isometry, delta, chambers, forms, zeta, torsion,
invariant, numerology, verify-all.  Payload JSON goes to standard output (or
``--out``), human diagnostics to the error stream.  Exit codes: 0 success,
1 domain error or failed verification, 2 malformed input.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from . import chambers as chambers_mod
from . import forms as forms_mod
from . import isometry as isometry_mod
from . import jsonio
from . import lattice as lattice_mod
from . import torsion as torsion_mod
from .errors import IhskitError, InputError

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
    doc = jsonio.load_document(path)
    if not isinstance(doc, dict) or "matrix" not in doc or "lattice" not in doc:
        raise InputError("isometry document needs 'lattice' and 'matrix' fields")
    lat = _parse_lattice_doc(doc["lattice"])
    return isometry_mod.Isometry(lat, jsonio.parse_int_matrix(doc["matrix"], "matrix"))


def _parse_spectrum_doc(doc: Any) -> torsion_mod.WeightedSpectrum:
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


def _chambers_payload(chams: Sequence[chambers_mod.Chamber2],
                      m0: tuple[int, int] | None) -> list[dict]:
    out = []
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
        out.append(entry)
    return out


def _element_terms_payload(element: forms_mod.GradedElement) -> list[dict]:
    terms = []
    for mono, coeff in element.terms():
        factors = [f"{name}^{e}" if e > 1 else name
                   for name, e in zip(forms_mod.GENERATORS, mono) if e]
        terms.append({"monomial": "*".join(factors) if factors else "1",
                      "coeff": coeff})
    return terms


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
    iso = _load_isometry(args.file)
    mirrors = isometry_mod.cartan_dieudonne(iso)
    return {
        "lattice": iso.lattice.label,
        "count": len(mirrors),
        "max_expected": 2 * iso.rank,
        "mirrors": [_rational_vector(m) for m in mirrors],
    }


def _cmd_isometry_admissible(args) -> dict:
    iota_k3 = isometry_mod.catalog_nikulin(args.m0)
    adm = isometry_mod.make_admissible(iota_k3)
    induced = adm.sublattice.induced()
    return {
        "m0": args.m0,
        "t": adm.t,
        "trace": adm.iota.trace(),
        "spinor_norm": adm.spinor_norm,
        "invariant_rank": adm.sublattice.rank,
        "invariant_basis": [list(v) for v in adm.sublattice.basis],
        "induced_gram": [list(row) for row in induced.gram],
        "hyperbolic": lattice_mod.is_hyperbolic(induced),
    }


def _cmd_delta(args) -> dict:
    sub = _load_sublattice(args.lattice, args.ambient)
    delta = chambers_mod.enumerate_delta(sub, bound=args.bound)
    return {
        "lattice": sub.label,
        "ambient": sub.ambient.label,
        "rank": sub.rank,
        "completeness": _completeness_payload(delta.completeness),
        "count": len(delta),
        "vectors": [{"coords": list(coords), "norm": norm}
                    for coords, norm in zip(delta.vectors, delta.norms)],
    }


def _chambers_common(args) -> tuple[chambers_mod.DeltaSet, list[chambers_mod.Chamber2]]:
    sub = _load_sublattice(args.lattice, args.ambient)
    delta = chambers_mod.enumerate_delta(sub, bound=args.bound)
    anchor = _parse_vec2(args.anchor, "--anchor")
    return delta, chambers_mod.chambers_rank2(delta, anchor)


def _cmd_chambers_rank2(args) -> dict:
    delta, chams = _chambers_common(args)
    m0 = _parse_vec2(args.m0, "--m0") if args.m0 else None
    return {
        "lattice": delta.sublattice.label,
        "anchor": list(_parse_vec2(args.anchor, "--anchor")),
        "wall_count": len(delta),
        "chambers": _chambers_payload(chams, m0),
    }


def _cmd_chambers_orbits(args) -> dict:
    delta, chams = _chambers_common(args)
    doc = jsonio.load_document(args.generators)
    if not isinstance(doc, dict) or "generators" not in doc:
        raise InputError("generators document needs a 'generators' list")
    gens = [jsonio.parse_int_matrix(g, "generator") for g in doc["generators"]]
    orbits = chambers_mod.chamber_orbits(chams, delta, gens)
    return {
        "chamber_count": len(chams),
        "orbit_count": len(orbits),
        "orbits": [[i + 1 for i in orbit] for orbit in orbits],
    }


def _cmd_chambers_plot(args) -> tuple[dict, str]:
    delta, chams = _chambers_common(args)
    svg = chambers_mod.chambers_svg(delta, chams)
    return {"chambers": len(chams), "svg_bytes": len(svg.encode())}, svg


def _forms_series(name: str, cap: int) -> forms_mod.GradedElement:
    builders = {
        "todd": lambda: forms_mod.todd_series(cap=cap),
        "sigmoid": lambda: forms_mod.sigmoid_det_factor(cap=cap),
        "ch": lambda: forms_mod.ch_bundle("c1F", "c2F", cap=cap),
        "ch-dual": lambda: forms_mod.ch_bundle("c1F", "c2F", dual=True, cap=cap),
        "eq-todd": lambda: forms_mod.equivariant_todd(cap=cap),
        "eq-ch": lambda: forms_mod.equivariant_ch_cotangent(cap=cap),
    }
    if name not in builders:
        raise InputError(f"unknown series {name!r}; choose from {sorted(builders)}")
    return builders[name]()


def _cmd_forms_expand(args) -> dict:
    element = _forms_series(args.series, args.weight)
    return {
        "series": args.series,
        "weight": args.weight,
        "terms": _element_terms_payload(element),
        "text": str(element),
    }


def _forms_checks(tol: float, which: str) -> list[dict]:
    checks: list[dict] = []
    if which in ("product", "all"):
        report = forms_mod.verify_product_identity()
        numeric_ok, worst = _product_numeric_check(tol)
        checks.append({
            "name": "weight3_product_identity",
            "passed": report.passed and numeric_ok,
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


def _product_numeric_check(tol: float, trials: int = 100) -> tuple[bool, float]:
    import random

    rng = random.Random(20260823)
    report = forms_mod.verify_product_identity()
    worst = 0.0
    for _ in range(trials):
        roots = [complex(rng.uniform(-0.1, 0.1)) for _ in range(4)]
        values = forms_mod.chern_values_from_roots(roots[:2], roots[2:])
        lhs = report.lhs.evaluate(values)
        rhs = report.rhs.evaluate(values)
        worst = max(worst, abs(lhs - rhs))
    return worst < tol, worst


def _cmd_forms_verify(args) -> dict:
    token = {"product": "product", "lemma33": "product",
             "tables": "tables", "all": "all"}.get(args.check)
    if token is None:
        raise InputError(f"unknown check {args.check!r}; choose product, tables or all")
    checks = _forms_checks(args.tol, token)
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


def _cmd_zeta(args) -> dict:
    spectrum = _parse_spectrum_doc(jsonio.load_document(args.spectrum))
    return {"dzeta0": torsion_mod.zeta_prime_zero(spectrum)}


def _cmd_torsion(args) -> dict:
    doc = jsonio.load_document(args.spectra)
    if not isinstance(doc, dict):
        raise InputError("spectra document must map degrees to spectra")
    spectra = {}
    for key, value in doc.items():
        try:
            q = int(key, 10)
        except ValueError as exc:
            raise InputError(f"spectra keys must be integer degrees, got {key!r}") from exc
        spectra[q] = _parse_spectrum_doc(value)
    tau = torsion_mod.equivariant_torsion(spectra, args.dim)
    import math

    return {"dim": args.dim, "torsion": tau, "log": math.log(tau)}


def _cmd_invariant(args) -> dict:
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
    import math

    return {
        "invariant": value,
        "log": math.log(value),
        "exp_vol": torsion_mod.numerology(ingredients.t).exp_vol,
    }


def _cmd_numerology(args) -> dict:
    return torsion_mod.numerology(args.t).to_dict()


def _flagship_sublattice() -> lattice_mod.Sublattice:
    l2 = lattice_mod.build_standard("L2")
    n = l2.rank
    h = tuple(1 if i in (16, 17) else 0 for i in range(n))
    e = tuple(1 if i == n - 1 else 0 for i in range(n))
    return lattice_mod.Sublattice(l2, (h, e), label="Zh+Ze")


def _cmd_verify_all(args) -> dict:
    checks: list[dict] = []
    checks.extend(_forms_checks(args.tol, "all"))

    sub = _flagship_sublattice()
    delta = chambers_mod.enumerate_delta(sub, bound=args.bound)
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
# Parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ihskit",
        description="Exact lattice, chamber, characteristic-form and torsion "
                    "computations with deterministic JSON output.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, bound: bool = False) -> None:
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write payload to FILE")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="tolerance for numeric oracles")
        if bound:
            p.add_argument("--bound", type=int, default=chambers_mod.DEFAULT_BOUND,
                           help="box bound for non-exact wall enumeration")

    p = sub.add_parser("lattice", help="catalog lookup and exact invariants")
    lat_sub = p.add_subparsers(dest="subcommand", required=True)
    p_info = lat_sub.add_parser("info", help="signature, determinant, discriminant group")
    p_info.add_argument("--name", help="catalog label, e.g. U, E8, LK3, L2, Z-2, Lambda_3")
    p_info.add_argument("--file", help="JSON lattice document")
    p_info.add_argument("--scale", type=int, default=1)
    common(p_info)
    p_info.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("isometry", help="isometry checks, factorization, catalog involutions")
    iso_sub = p.add_subparsers(dest="subcommand", required=True)
    p_ii = iso_sub.add_parser("info", help="validate and summarize an isometry")
    p_ii.add_argument("--file", required=True)
    common(p_ii)
    p_ii.set_defaults(handler=_cmd_isometry_info)
    p_if = iso_sub.add_parser("factor", help="reflection factorization over Q")
    p_if.add_argument("--file", required=True)
    common(p_if)
    p_if.set_defaults(handler=_cmd_isometry_factor)
    p_ia = iso_sub.add_parser("admissible", help="build a catalog admissible involution")
    p_ia.add_argument("--m0", required=True, help="catalog invariant part: Zh or U")
    common(p_ia)
    p_ia.set_defaults(handler=_cmd_isometry_admissible)

    p = sub.add_parser("delta", help="wall-vector enumeration with certificates")
    del_sub = p.add_subparsers(dest="subcommand", required=True)
    p_de = del_sub.add_parser("enum", help="enumerate the wall set of an embedded sublattice")
    p_de.add_argument("--lattice", required=True, help="embedded sublattice JSON document")
    p_de.add_argument("--ambient", default=None, help="ambient catalog label or inline doc")
    common(p_de, bound=True)
    p_de.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("chambers", help="rank-2 chamber decompositions")
    ch_sub = p.add_subparsers(dest="subcommand", required=True)
    for name, handler, extra in (
            ("rank2", _cmd_chambers_rank2, "m0"),
            ("orbits", _cmd_chambers_orbits, "generators"),
            ("plot", _cmd_chambers_plot, None)):
        p_ch = ch_sub.add_parser(name)
        p_ch.add_argument("--lattice", required=True)
        p_ch.add_argument("--ambient", default=None)
        p_ch.add_argument("--anchor", required=True, help='positive-cone anchor, e.g. "1,0"')
        if extra == "m0":
            p_ch.add_argument("--m0", default=None,
                              help="rank-1 direction for naturality flags, e.g. \"1,0\"")
        if extra == "generators":
            p_ch.add_argument("--generators", required=True,
                              help="JSON document with a 'generators' list of 2x2 matrices")
        common(p_ch, bound=True)
        p_ch.set_defaults(handler=handler)

    p = sub.add_parser("forms", help="characteristic-form series and identity checks")
    f_sub = p.add_subparsers(dest="subcommand", required=True)
    p_fv = f_sub.add_parser("verify", help="run symbolic identity checks")
    p_fv.add_argument("check", nargs="?", default="all",
                      help="product, tables, or all")
    common(p_fv)
    p_fv.set_defaults(handler=_cmd_forms_verify)
    p_fe = f_sub.add_parser("expand", help="print a series with sorted monomials")
    p_fe.add_argument("--series", required=True,
                      help="todd | sigmoid | ch | ch-dual | eq-todd | eq-ch")
    p_fe.add_argument("--weight", type=int, default=forms_mod.DEFAULT_CAP)
    common(p_fe)
    p_fe.set_defaults(handler=_cmd_forms_expand)

    p = sub.add_parser("zeta", help="spectral zeta derivative at zero")
    z_sub = p.add_subparsers(dest="subcommand", required=True)
    p_zd = z_sub.add_parser("dzeta")
    p_zd.add_argument("--spectrum", required=True, help="spectrum JSON document")
    common(p_zd)
    p_zd.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("torsion", help="equivariant torsion from explicit spectra")
    t_sub = p.add_subparsers(dest="subcommand", required=True)
    p_te = t_sub.add_parser("eq")
    p_te.add_argument("--spectra", required=True,
                      help="JSON document mapping degree q to a spectrum")
    p_te.add_argument("--dim", type=int, required=True)
    common(p_te)
    p_te.set_defaults(handler=_cmd_torsion)

    p = sub.add_parser("invariant", help="assemble the final invariant")
    i_sub = p.add_subparsers(dest="subcommand", required=True)
    p_ia2 = i_sub.add_parser("assemble")
    p_ia2.add_argument("--ingredients", required=True)
    common(p_ia2)
    p_ia2.set_defaults(handler=_cmd_invariant)

    p_n = sub.add_parser("numerology", help="exact t-dependent constants")
    p_n.add_argument("--t", type=int, required=True)
    common(p_n)
    p_n.set_defaults(handler=_cmd_numerology)

    p_va = sub.add_parser("verify-all", help="run every built-in identity check")
    common(p_va, bound=True)
    p_va.set_defaults(handler=_cmd_verify_all)
    return parser


def run(argv: Sequence[str]) -> CommandResult:
    stderr = io.StringIO()
    try:
        with redirect_stderr(stderr):
            args = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(2 if code != 0 else 0, "", stderr.getvalue())

    try:
        result = args.handler(args)
    except InputError as exc:
        err = jsonio.dumps_payload({"error": {"kind": "input", "message": str(exc)}})
        return CommandResult(2, "", err + "\n")
    except IhskitError as exc:
        err = jsonio.dumps_payload(
            {"error": {"kind": type(exc).__name__, "message": str(exc)}})
        return CommandResult(1, "", err + "\n")

    raw_text: str | None = None
    if isinstance(result, tuple):
        payload, raw_text = result
    else:
        payload = result

    if getattr(args, "format", "json") == "text":
        rendered = "\n".join(_render_text(payload)) + "\n"
    else:
        rendered = jsonio.dumps_payload(payload) + "\n"

    out_text = raw_text if raw_text is not None else rendered
    diagnostics = ""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out_text)
        except OSError as exc:
            err = jsonio.dumps_payload(
                {"error": {"kind": "input", "message": f"cannot write {args.out}: {exc}"}})
            return CommandResult(2, "", err + "\n")
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
