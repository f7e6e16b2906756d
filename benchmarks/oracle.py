"""Reference arithmetic that checks ihskit outputs without calling ihskit.

Every check recomputes what it needs with code of its own: Fraction
elimination for determinants, ranks and signatures, Smith normal form modulo
the determinant, reflections applied one vector at a time, a wall search that
solves for the last coordinate instead of scanning it, and exact power series
evaluated at Chern roots.  A defect in the program therefore cannot hide in
the oracle that checks it.
"""

from __future__ import annotations

import itertools
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from functools import cmp_to_key
from typing import Any, Sequence

NORM_MAIN = -2
NORM_DEEP = -10
LOG_2PI = math.log(2 * math.pi)
REL_TOL = 1e-9


class CheckError(Exception):
    """An output disagrees with the reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def strict_json(text: str) -> Any:
    """Parse JSON and reject the NaN and Infinity tokens Python would accept."""
    def reject(token: str) -> None:
        raise CheckError(f"non-finite number {token} in JSON output")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def rational(value: Any) -> Fraction:
    """Decode the wire form of an exact number (int, decimal string or num/den)."""
    if isinstance(value, dict):
        return Fraction(int(value["num"]), int(value["den"]))
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(int(value))
    raise CheckError(f"expected an exact number, got {value!r}")


def close(a: float, b: float, what: str) -> None:
    require(isinstance(a, (int, float)) and not isinstance(a, bool), f"{what} is not a number")
    require(math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12), f"{what}: got {a!r}, expected {b!r}")


# ---------------------------------------------------------------------------
# Linear algebra over Z and Q


def pair(gram: Sequence[Sequence[int]], x: Sequence, y: Sequence):
    return sum(xi * sum(g * yj for g, yj in zip(row, y)) for xi, row in zip(x, gram) if xi)


def gram_vec(gram: Sequence[Sequence[int]], v: Sequence) -> list:
    return [sum(g * x for g, x in zip(row, v)) for row in gram]


def induced_gram(gram, basis) -> list[list[int]]:
    return [[pair(gram, u, v) for v in basis] for u in basis]


def _row_reduce(matrix) -> tuple[int, Fraction]:
    """(rank, determinant if square and full rank else 0) by Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        p = rows[rank][c]
        det *= p
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / p
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank, (det if rank == len(rows) == cols else Fraction(0))


def rank_of(matrix) -> int:
    return _row_reduce(matrix)[0]


def det(matrix) -> int:
    value = _row_reduce(matrix)[1]
    require(value.denominator == 1, "determinant of an integer matrix is not an integer")
    return int(value)


def signature(gram) -> tuple[int, int]:
    """(positive, negative) index by repeated Schur complements."""
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    while a:
        n = len(a)
        p = next((i for i in range(n) if a[i][i]), None)
        if p is None:
            i, j = next(((i, j) for i in range(n) for j in range(n) if a[i][j]), (None, None))
            require(i is not None, "form is degenerate")
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            p = i
        d = a[p][p]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        rest = [r for r in range(n) if r != p]
        a = [[a[r][c] - a[r][p] * a[p][c] / d for c in rest] for r in rest]
    return pos, neg


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def discriminant_group(gram) -> list[int]:
    """Invariant factors > 1 of a nonsingular integer matrix.

    Smith normal form over Z/D with D = |det|: every invariant factor divides
    D, so entries can be kept reduced modulo D and never grow.
    """
    D = abs(det(gram))
    require(D != 0, "Gram matrix is degenerate")
    if D == 1:
        return []
    a = [[x % D for x in row] for row in gram]
    n = len(a)
    factors = []
    for t in range(n):
        while True:
            for i in range(t + 1, n):
                p, q = a[t][t], a[i][t]
                if q and p and q % p == 0:
                    a[i] = [(y - q // p * x) % D for x, y in zip(a[t], a[i])]
                elif q:
                    g, x, y = _xgcd(p, q)
                    u, v = p // g, q // g
                    a[t], a[i] = ([(x * e + y * f) % D for e, f in zip(a[t], a[i])],
                                  [(-v * e + u * f) % D for e, f in zip(a[t], a[i])])
            for j in range(t + 1, n):
                p, q = a[t][t], a[t][j]
                if q and p and q % p == 0:
                    for row in a:
                        row[j] = (row[j] - q // p * row[t]) % D
                elif q:
                    g, x, y = _xgcd(p, q)
                    u, v = p // g, q // g
                    for row in a:
                        e, f = row[t], row[j]
                        row[t], row[j] = (x * e + y * f) % D, (-v * e + u * f) % D
            if any(a[i][t] for i in range(t + 1, n)):
                continue
            pivot = math.gcd(a[t][t], D)
            offender = next((i for i in range(t + 1, n)
                             if any(a[i][j] % pivot for j in range(t + 1, n))), None)
            if offender is None:
                break
            a[t] = [(e + f) % D for e, f in zip(a[t], a[offender])]
        factors.append(math.gcd(a[t][t], D))
    return [d for d in factors if d > 1]


# ---------------------------------------------------------------------------
# Reflections and isometries


def reflection_product(gram, mirrors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The matrix refl(m_1) @ ... @ refl(m_k), built column by column with
    s_m(x) = x - 2 (x, m) / (m, m) m."""
    steps = []
    for m in reversed(mirrors):
        gm = gram_vec(gram, m)
        norm = sum(a * b for a, b in zip(m, gm))
        require(norm != 0, "mirror is isotropic")
        steps.append((m, gm, 2 / Fraction(norm)))
    n = len(gram)
    cols = []
    for j in range(n):
        v = [Fraction(int(i == j)) for i in range(n)]
        for m, gm, scale in steps:
            k = scale * sum(a * b for a, b in zip(v, gm) if a)
            if k:
                v = [a - k * b for a, b in zip(v, m)]
        cols.append(v)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def apply(matrix, v) -> list:
    return [sum(a * b for a, b in zip(row, v)) for row in matrix]


def is_involution(matrix) -> bool:
    n = len(matrix)
    return all(apply(matrix, [row[j] for row in matrix]) == [int(i == j) for i in range(n)]
               for j in range(n))


def fixed_rank(matrix) -> int:
    """Dimension of the +1 eigenspace."""
    n = len(matrix)
    return n - rank_of([[x - int(i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(matrix)])


# ---------------------------------------------------------------------------
# Wall vectors


def _solve_quadratic(a: int, b: int, c: int, bound: int) -> list[int]:
    """Integers |t| <= bound with a t^2 + 2 b t + c = 0."""
    if a == 0:
        if b == 0:
            return list(range(-bound, bound + 1)) if c == 0 else []
        return [-c // (2 * b)] if c % (2 * b) == 0 and abs(c // (2 * b)) <= bound else []
    disc = b * b - a * c
    if disc < 0:
        return []
    s = math.isqrt(disc)
    if s * s != disc:
        return []
    return sorted({num // a for num in (-b + s, -b - s) if num % a == 0 and abs(num // a) <= bound})


def ambient_divisibility(ambient, basis, coords) -> int:
    v = [sum(c * u[i] for c, u in zip(coords, basis)) for i in range(len(ambient))]
    return math.gcd(*gram_vec(ambient, v))


def walls_in_box(ambient, basis, bound: int) -> dict[tuple[int, ...], int]:
    """Wall vectors with all |x_i| <= bound, mapped to their norm."""
    g = induced_gram(ambient, basis)
    r = len(g)
    a = g[r - 1][r - 1]
    walls = {}
    for prefix in itertools.product(range(-bound, bound + 1), repeat=r - 1):
        b = sum(g[i][r - 1] * x for i, x in enumerate(prefix))
        q = pair([row[:r - 1] for row in g[:r - 1]], prefix, prefix) if r > 1 else 0
        for target in (NORM_MAIN, NORM_DEEP):
            for t in _solve_quadratic(a, b, q - target, bound):
                v = (*prefix, t)
                if any(v) and (target == NORM_MAIN
                               or ambient_divisibility(ambient, basis, v) == 2):
                    walls[v] = target
    return dict(sorted(walls.items()))


def exact_rank2_walls(ambient, basis) -> dict[tuple[int, ...], int]:
    """All wall vectors of a rank-2 form with positive square discriminant.

    The form splits into two integer linear forms u, v with u v = a * target,
    which bounds both coordinates; the box search then finds every solution.
    """
    (a, b), (_, c) = induced_gram(ambient, basis)
    disc = b * b - a * c
    s = math.isqrt(disc)
    require(disc > 0 and s * s == disc, "rank-2 form is not split over Q")
    bound = 1
    for target in (NORM_MAIN, NORM_DEEP):
        lead = a if a else c
        if lead:
            # |u|, |v| <= top, so |y| <= top / s and |x| <= (top + |b - s| top / s) / |lead|
            # (x and y swap roles when a = 0).
            top = abs(lead * target)
            bound = max(bound, top // s + 1,
                        (top + (abs(b) + s) * top // s) // abs(lead) + 2)
        else:
            bound = max(bound, abs(target))
    return walls_in_box(ambient, basis, bound)


# ---------------------------------------------------------------------------
# Rank-2 chambers


def _primitive(v) -> tuple[int, int]:
    g = math.gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def chambers(g2, walls, anchor) -> tuple[list[tuple], set]:
    """Chamber ray pairs in counterclockwise order, and the boundary rays."""
    (a, b), (_, c) = g2
    s = math.isqrt(b * b - a * c)
    iso = [(-b + s, a), (-b - s, a)] if a else [(1, 0), (-c, 2 * b)]

    def orient(ray):
        ray = _primitive(ray)
        return ray if pair(g2, ray, anchor) > 0 else (-ray[0], -ray[1])

    boundary = {orient(r) for r in iso}
    rays = set(boundary)
    for d in walls:
        p, q = gram_vec(g2, d)
        rays.add(orient((-q, p)))
    ordered = sorted(rays, key=cmp_to_key(lambda u, v: -_cross(u, v)))
    return list(zip(ordered, ordered[1:])), boundary


def orbits(pairs, generators) -> list[list[int]]:
    index = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for g in generators:
        for i, (low, high) in enumerate(pairs):
            img = [_primitive(apply(g, ray)) for ray in (low, high)]
            if _cross(img[0], img[1]) < 0:
                img.reverse()
            require(tuple(img) in index, "generator image is not a chamber")
            parent[root(i)] = root(index[tuple(img)])
    groups: dict[int, list[int]] = {}
    for i in range(len(pairs)):
        groups.setdefault(root(i), []).append(i + 1)
    return sorted(groups.values())


def generator_ok(g2, walls, anchor, g) -> bool:
    """Whether a 2x2 integer matrix preserves the form, the cone and the walls."""
    cols = [[row[j] for row in g] for j in range(2)]
    if induced_gram(g2, cols) != [list(r) for r in g2]:
        return False
    if pair(g2, apply(g, anchor), anchor) <= 0:
        return False
    return all(tuple(apply(g, w)) in walls for w in walls)


def svg_shapes(text: str) -> tuple[int, int]:
    """(filled chamber paths, drawn rays) of a chamber picture."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse: {exc}") from exc
    ns = "{http://www.w3.org/2000/svg}"
    return len(root.findall(f"{ns}path")), len(root.findall(f"{ns}line"))


# ---------------------------------------------------------------------------
# Characteristic-form series


def _series_inverse(s: list[Fraction], cap: int) -> list[Fraction]:
    out = [1 / s[0]]
    for n in range(1, cap + 1):
        out.append(-sum(s[k] * out[n - k] for k in range(1, n + 1)) / s[0])
    return out


def _mul(x: list[Fraction], y: list[Fraction], cap: int) -> list[Fraction]:
    return [sum(x[i] * y[n - i] for i in range(n + 1)) for n in range(cap + 1)]


def scalar_series(name: str, cap: int) -> list[Fraction]:
    """Taylor coefficients of the one-root factor of each class."""
    fact = [Fraction(1, math.factorial(k)) for k in range(cap + 2)]
    if name == "exp":
        return fact[:cap + 1]
    if name == "todd":  # x / (1 - e^-x)
        return _series_inverse([(-1) ** k * fact[k + 1] for k in range(cap + 1)], cap)
    if name == "sigmoid":  # 1 / (1 + e^-x)
        return _series_inverse([Fraction(2)] + [(-1) ** k * fact[k] for k in range(1, cap + 1)],
                               cap)
    raise ValueError(name)


SERIES_CLASSES = {
    # series -> [(combine, scalar, bundle, dual)]: "mul" factors are multiplied,
    # "add"/"sub" terms summed, each taken at the roots of bundle F or N (negated
    # for the dual bundle).
    "todd": [("mul", "todd", "F", False)],
    "sigmoid": [("mul", "sigmoid", "N", False)],
    "ch": [("add", "exp", "F", False)],
    "ch-dual": [("add", "exp", "F", True)],
    "eq-todd": [("mul", "todd", "F", False), ("mul", "sigmoid", "N", False)],
    "eq-ch": [("add", "exp", "F", True), ("sub", "exp", "N", True)],
}


def closed_form(series: str, roots: dict[str, tuple[Fraction, Fraction]],
                cap: int) -> list[Fraction]:
    """Weight components of a series at the given Chern roots, as the
    coefficients of lambda^k after scaling every root by lambda."""
    product = [Fraction(1)] + [Fraction(0)] * cap
    total = [Fraction(0)] * (cap + 1)
    additive = False
    for kind, scalar, bundle, dual in SERIES_CLASSES[series]:
        coeffs = scalar_series(scalar, cap)
        for r in roots[bundle]:
            r = -r if dual else r
            term = [c * r ** k for k, c in enumerate(coeffs)]
            if kind == "mul":
                product = _mul(product, term, cap)
            else:
                additive = True
                sign = 1 if kind == "add" else -1
                total = [t + sign * x for t, x in zip(total, term)]
    return total if additive else product


def check_series_terms(series: str, cap: int, terms: list, points) -> None:
    """Compare each weight component of the payload with the closed form."""
    weights = {"c1F": 1, "c2F": 2, "c1N": 1, "c2N": 2}
    parsed = []
    for term in terms:
        mono = term["monomial"]
        factors = [] if mono == "1" else mono.split("*")
        powers = []
        for f in factors:
            name, _, e = f.partition("^")
            require(name in weights, f"unexpected generator {name} in {series}")
            powers.append((name, int(e or 1)))
        weight = sum(weights[n] * e for n, e in powers)
        require(weight <= cap, f"term {mono} exceeds weight cap {cap}")
        parsed.append((weight, powers, rational(term["coeff"])))
    for roots in points:
        values = {"c1F": sum(roots["F"]), "c2F": roots["F"][0] * roots["F"][1],
                  "c1N": sum(roots["N"]), "c2N": roots["N"][0] * roots["N"][1]}
        got = [Fraction(0)] * (cap + 1)
        for weight, powers, coeff in parsed:
            value = coeff
            for name, e in powers:
                value *= values[name] ** e
            got[weight] += value
        want = closed_form(series, roots, cap)
        bad = [k for k in range(cap + 1) if got[k] != want[k]]
        require(not bad, f"{series} weight components {bad} disagree with the closed form")


# ---------------------------------------------------------------------------
# Analytic layer


def dzeta(spectrum: dict) -> float:
    if spectrum["kind"] == "finite":
        return -sum(w * math.log(lam) for lam, w in spectrum["entries"])
    return spectrum["w"] * (0.5 * math.log(spectrum["a"]) - 0.5 * spectrum["p"] * LOG_2PI)


def torsion(spectra: dict) -> float:
    return math.exp(-sum((-1) ** int(q) * int(q) * dzeta(s) for q, s in spectra.items()))


def numerology(t: int) -> dict[str, Fraction]:
    t = Fraction(t)
    return {
        "t": t, "c1sq": t * t - 1, "chi": (t * t + 7) / 8, "c2": (t * t + 23) / 2,
        "dim_def": (21 - t) / 2, "omega_int": -3 * (t * t + 7),
        "exp_vol": (t - 1) * (t - 7) / 16, "coef_curv16": (t + 1) * (t + 7) / 16,
        "coef_curv8": (t + 1) * (t + 7) / 8, "coef_prop32": -t / 2,
        "coef_l34_plus": -(21 + t) / 4, "coef_l34_minus": -(21 - t) / 4,
    }
