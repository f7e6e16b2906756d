"""Per-layer spans for ihskit, recorded from outside the program.

``Tracer.install`` wraps every public function of each ihskit module, in every
module namespace that holds it, and the public methods and ``__post_init__``
of its classes.  Each call records a span (name, start, end, parent span, job
id) in memory; hot leaf calls such as ``Lattice.inner`` are aggregated per
parent span instead.  A layer is the module that defines the function, and
its self time is the time its spans last minus the time their child spans
cover.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from fractions import Fraction
from pathlib import Path

LAYERS = ("cli", "jsonio", "lattice", "exactmat", "isometry", "chambers", "forms", "torsion")

# Leaf calls made thousands of times per job: aggregated per parent span.
HOT = {
    "lattice.Lattice.inner", "lattice.Lattice.norm", "lattice.divisibility",
    "lattice.Sublattice.embed", "lattice.Sublattice.ambient_divisibility",
    "exactmat.mat_vec", "exactmat.mat_eq", "exactmat.transpose", "exactmat.identity",
    "exactmat.mat_fraction", "exactmat.is_integral", "exactmat.mat_sub",
    "isometry.Isometry.apply", "chambers.is_natural",
    "forms.GradedElement.evaluate", "forms.GradedElement.terms",
    "forms.GradedElement.coefficient", "forms.GradedElement.weight_component",
    "forms.GradedElement.substitute",
    "jsonio.encode_value", "jsonio.parse_int", "jsonio.parse_int_vector",
    "jsonio.parse_number", "jsonio.parse_rational",
}
SERIES = ("forms.todd_series", "forms.sigmoid_det_factor", "forms.ch_bundle",
          "forms.equivariant_todd", "forms.equivariant_ch_cotangent")
VERIFY = ("forms.verify_product_identity", "forms.reference_checks")
GEOMETRY = ("chambers.chambers_rank2", "chambers.chamber_orbits", "chambers.chambers_svg")
ENUMERATE = "chambers.enumerate_delta"


def _bits(matrix) -> int:
    best = 0
    for row in matrix:
        for x in row:
            if isinstance(x, Fraction):
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
            else:
                best = max(best, int(x).bit_length())
    return best


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []       # (id, name, start, end, parent id, job id)
        self.aggregated: dict[tuple[int, str], list] = {}   # (parent id, name) -> [calls, s]
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters = {"exactmat.mat_mul.mults": 0, "exactmat.max_fraction_bits": 0,
                         "isometry.mirrors": 0, "chambers.pairings": 0, "chambers.walls": 0,
                         "forms.terms": 0, "jsonio.bytes_out": 0, "cli.errors": 0}
        self.job = -1
        self._stack: list[list] = []       # open frames: [span id, child seconds]
        self._next_id = 0
        self._enumerating = 0
        self._patched: list[tuple[object, str, object]] = []
        self._terms = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("ihskit")
        modules = {layer: importlib.import_module(f"ihskit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for name, member in list(vars(value).items()):
                        if inspect.isfunction(member) and (not name.startswith("_")
                                                           or name == "__post_init__"):
                            self._patch(value, name,
                                        self._wrap(f"{layer}.{attr}.{name}", member))
        self._terms = modules["forms"].GradedElement.terms.__wrapped__
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(namespace, attr, wrappers[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        tracer = self
        hot = name in HOT
        post = self._post_hook(name)
        enumerate_delta = name == ENUMERATE
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [-1 if hot else tracer._next_id, 0.0]
            if not hot:
                tracer._next_id += 1
            stack.append(frame)
            tracer._enumerating += enumerate_delta
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                tracer._enumerating -= enumerate_delta
                if ok and post is not None:
                    post(args, result)
                tracer._record(name, hot, frame, parent, t0, t1)
                if parent is not None:
                    parent[1] += clock() - t0   # bookkeeping is nobody's self time

        return wrapper

    def _record(self, name, hot, frame, parent, t0, t1) -> None:
        dur = t1 - t0
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += dur
        total[2] += dur - frame[1]
        parent_id = parent[0] if parent is not None else None
        if hot:
            agg = self.aggregated.setdefault((parent_id, name), [0, 0.0])
            agg[0] += 1
            agg[1] += dur
        else:
            self.spans.append((frame[0], name, t0, t1, parent_id, self.job))

    def _post_hook(self, name: str):
        c = self.counters

        def mat_mul(args, result):
            a, b = args[0], args[1]
            if len(a) and len(b):
                c["exactmat.mat_mul.mults"] += len(a) * len(b) * len(b[0])
            c["exactmat.max_fraction_bits"] = max(c["exactmat.max_fraction_bits"], _bits(result))

        def kernel(args, result):
            c["exactmat.max_fraction_bits"] = max(c["exactmat.max_fraction_bits"], _bits(result))

        def pairing(args, result):
            if self._enumerating:
                c["chambers.pairings"] += 1

        def count(key, size):
            def hook(args, result):
                c[key] += size(result)
            return hook

        hooks = {
            "exactmat.mat_mul": mat_mul,
            "exactmat.fraction_kernel": kernel,
            "lattice.Lattice.inner": pairing,
            "lattice.divisibility": pairing,
            "isometry.cartan_dieudonne": count("isometry.mirrors", len),
            ENUMERATE: count("chambers.walls", len),
            "jsonio.dumps_payload": count("jsonio.bytes_out", len),
        }
        hooks.update({s: count("forms.terms", lambda r: len(self._terms(r))) for s in SERIES})
        return hooks.get(name)

    # -- results ------------------------------------------------------------

    def _outer_seconds(self, names) -> float:
        """Time inside spans of ``names`` that are not nested in another of them."""
        names = set(names)
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span[1] not in names:
                continue
            parent = span[4]
            while parent is not None and by_id[parent][1] not in names:
                parent = by_id[parent][4]
            if parent is None:
                total += span[3] - span[2]
        return total

    def metrics(self) -> dict[str, tuple[float, str]]:
        def calls(name):
            return self.totals.get(name, [0, 0.0, 0.0])[0]

        def seconds(*names):
            return self._outer_seconds(names)

        self_s = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, own) in self.totals.items():
            self_s[name.split(".", 1)[0]] += own
        c = self.counters
        walls, pairings = c["chambers.walls"], c["chambers.pairings"]
        out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
        out.update({
            "isometry.cartan_dieudonne.calls": (calls("isometry.cartan_dieudonne"), "count"),
            "isometry.cartan_dieudonne.s": (seconds("isometry.cartan_dieudonne"), "s"),
            "isometry.mirrors": (c["isometry.mirrors"], "count"),
            "isometry.Isometry.constructed": (calls("isometry.Isometry.__post_init__"), "count"),
            "isometry.spinor_norm.calls": (calls("isometry.spinor_norm"), "count"),
            "isometry.spinor_norm.s": (seconds("isometry.spinor_norm"), "s"),
            "exactmat.mat_mul.calls": (calls("exactmat.mat_mul"), "count"),
            "exactmat.mat_mul.mults": (c["exactmat.mat_mul.mults"], "count"),
            "exactmat.fraction_kernel.calls": (calls("exactmat.fraction_kernel"), "count"),
            "exactmat.fraction_kernel.s": (seconds("exactmat.fraction_kernel"), "s"),
            "exactmat.det_int.calls": (calls("exactmat.det_int"), "count"),
            "exactmat.invariant_factors.calls": (calls("exactmat.invariant_factors"), "count"),
            "exactmat.max_fraction_bits": (c["exactmat.max_fraction_bits"], "bits"),
            "chambers.enumerate_delta.s": (seconds(ENUMERATE), "s"),
            "chambers.pairings": (pairings, "count"),
            "chambers.walls": (walls, "count"),
            "chambers.useful_ratio": (walls / pairings if pairings else 0.0, "ratio"),
            "chambers.geometry_s": (seconds(*GEOMETRY), "s"),
            "lattice.Lattice.constructed": (calls("lattice.Lattice.__post_init__"), "count"),
            "lattice.induced.calls": (calls("lattice.Sublattice.induced"), "count"),
            "lattice.inner.calls": (calls("lattice.Lattice.inner"), "count"),
            "lattice.divisibility.calls": (calls("lattice.divisibility"), "count"),
            "lattice.signature.calls": (calls("lattice.signature"), "count"),
            "lattice.signature.s": (seconds("lattice.signature"), "s"),
            "forms.series.s": (seconds(*SERIES), "s"),
            "forms.verify.s": (seconds(*VERIFY), "s"),
            "forms.terms": (c["forms.terms"], "count"),
            "torsion.calls": (sum(t[0] for n, t in self.totals.items()
                                  if n.startswith("torsion.")), "count"),
            "jsonio.bytes_out": (c["jsonio.bytes_out"], "bytes"),
            "cli.errors": (c["cli.errors"], "count"),
        })
        return out

    def write(self, path: Path, meta: dict) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        doc = dict(meta,
                   spans=[[i, n, s - origin, e - origin, p, j] for i, n, s, e, p, j in self.spans],
                   aggregated=[[p, n, k, sec] for (p, n), (k, sec) in self.aggregated.items()])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
