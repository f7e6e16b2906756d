"""Seeded job lists for the three benchmark workloads.

A job is one ``ihskit`` command line, the JSON documents it reads, and a check
that verifies its output with ``oracle`` (never with ihskit itself).  Inputs
depend only on the seed and, for ``survey``, on the pass number.  The share
of each kind of job is fixed by a template and only the concrete inputs vary
with the seed, so runs on different seeds do comparable work.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

from oracle import (CheckError, apply, close, det, discriminant_group,
                    exact_rank2_walls, fixed_rank, generator_ok, induced_gram, pair,
                    rational, rank_of, reflection_product, require, signature,
                    strict_json, svg_shapes, walls_in_box)
import oracle

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "src" / "ihskit" / "data" / "catalog.json"

WORKLOADS = ("involution", "walls", "survey")


@dataclass
class Job:
    kind: str
    argv: list[str]
    docs: dict[str, Any] = field(default_factory=dict)  # path -> JSON value, or raw text
    check: Callable[[Any], None] | None = None  # None: a structured error is the right outcome
    svg: bool = False


def write_docs(jobs: list[Job]) -> None:
    for job in jobs:
        for path, value in job.docs.items():
            text = value if isinstance(value, str) else json.dumps(value)
            Path(path).write_text(text, encoding="utf-8")


def judge(job: Job, outcome: Any) -> str | None:
    """None when the job's outcome is right, else the reason it failed."""
    if isinstance(outcome, BaseException):
        return f"uncaught {type(outcome).__name__}: {outcome}"
    try:
        if job.check is None:
            require(outcome.exit_code in (1, 2), f"exit code {outcome.exit_code}, expected 1 or 2")
            require(not outcome.stdout, "an error run wrote to stdout")
            err = strict_json(outcome.stderr)
            require(isinstance(err, dict) and isinstance(err.get("error"), dict)
                    and isinstance(err["error"].get("message"), str),
                    "stderr holds no JSON error")
        else:
            require(outcome.exit_code == 0,
                    f"exit code {outcome.exit_code}: {outcome.stderr.strip()[:200]}")
            job.check(outcome.stdout if job.svg else strict_json(outcome.stdout))
    except CheckError as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed payload: {exc!r}"
    return None


def probe_ok(outcome: Any) -> str | None:
    """Aim 3 of the roadmap: a result in strict JSON, or a JSON error with exit 1 or 2."""
    if isinstance(outcome, BaseException):
        return f"uncaught {type(outcome).__name__}: {outcome}"
    try:
        if outcome.exit_code == 0:
            strict_json(outcome.stdout)
        else:
            return judge(Job("probe", []), outcome)
    except CheckError as exc:
        return str(exc)
    return None


@lru_cache(maxsize=1)
def catalog() -> dict[str, tuple[tuple[int, ...], ...]]:
    doc = json.loads(CATALOG.read_text(encoding="utf-8"))
    return {e["label"]: tuple(tuple(r) for r in e["gram"]) for e in doc["lattices"]}


def _unit(n: int, *terms: tuple[int, int]) -> list[int]:
    v = [0] * n
    for index, coeff in terms:
        v[index] += coeff
    return v


# ---------------------------------------------------------------------------
# involution: Cartan-Dieudonne and spinor norms


# Each block of eight jobs: two cheap (rank 3-6), three mid-cost (rank 8), two
# dearer (rank 9-12) and one rank-23 job.  The mid-cost jobs span the 25% to
# 62.5% points of the latency distribution and the rank-23 jobs its top
# eighth, so p50 and p90 each fall inside one cluster of similar jobs.
TIERS = {"cheap": ("Lambda_9", "Lambda_8", "Lambda_8U", "Lambda_7", "Lambda_6"),
         "mid": ("E8", "Lambda_4"),
         "dear": ("Lambda_3", "Lambda_2", "Lambda_1", "Lambda_0"),
         "rank23": ("L2",)}
BLOCK = ("cheap", "mid", "dear", "mid", "rank23", "cheap", "mid", "dear")
BLOCKS = 20
RANK23_WORD = 4      # reflections per rank-23 isometry
ADMISSIBLE_AT = {32: "Zh", 97: "U"}


@lru_cache(maxsize=None)
def roots(label: str) -> tuple[tuple[int, ...], ...]:
    """Basis vectors and e_i +- e_j of norm +-1 or +-2: their reflections are integral."""
    gram = catalog()[label]
    n = len(gram)
    out = []
    for i in range(n):
        for j in range(i, n):
            for s in ((1,) if i == j else (1, -1)):
                v = _unit(n, (i, 1)) if i == j else _unit(n, (i, 1), (j, s))
                if pair(gram, v, v) in (1, -1, 2, -2):
                    out.append(tuple(v))
    return tuple(out)


def _word_isometry(gram, word) -> list[list[int]]:
    """Integer matrix of s_{r_1} ... s_{r_k}."""
    n = len(gram)
    cols = []
    for j in range(n):
        v = _unit(n, (j, 1))
        for r in reversed(word):
            k = 2 * pair(gram, v, r) // pair(gram, r, r)
            v = [a - k * b for a, b in zip(v, r)]
        cols.append(v)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _orthogonal_roots(rng, label: str, count: int) -> list[tuple[int, ...]]:
    """Random mutually orthogonal roots.  Their reflections commute, so the
    product is an involution whose factorization needs exactly ``count``
    mirrors; that keeps the cost of a job from depending on the seed."""
    gram = catalog()[label]
    word: list[tuple[int, ...]] = []
    while len(word) < count:
        fits = [r for r in roots(label) if all(pair(gram, r, w) == 0 for w in word)]
        word = word + [rng.choice(fits)] if fits else []
    return word


def _isometry_job(rng, path: str, label: str, command: str, word_len: int) -> Job:
    gram = catalog()[label]
    n = len(gram)
    word = _orthogonal_roots(rng, label, word_len)
    matrix = _word_isometry(gram, word)
    spinor = 1
    for r in word:
        if pair(gram, r, r) > 0:
            spinor = -spinor

    def check_factor(p):
        mirrors = [[rational(x) for x in m] for m in p["mirrors"]]
        require(p["lattice"] == label and p["max_expected"] == 2 * n, "wrong header")
        require(p["count"] == len(mirrors) <= 2 * n, f"{len(mirrors)} mirrors for rank {n}")
        require(all(len(m) == n for m in mirrors), "mirror of the wrong length")
        require(reflection_product(gram, mirrors) == matrix,
                "mirror product does not rebuild the isometry")

    def check_info(p):
        fix = fixed_rank(matrix)
        require(p["lattice"] == label and p["rank"] == n and p["integral"] is True,
                "wrong header")
        require(p["involution"] == oracle.is_involution(matrix), "wrong involution flag")
        require(p["trace"] == sum(matrix[i][i] for i in range(n)), "wrong trace")
        require(p["spinor_norm"] == spinor, "spinor norm is not the sign product of the word")
        require(p["in_o_plus"] == (spinor == 1), "wrong O+ flag")
        basis = p["invariant_basis"]
        if fix == 0:
            require(basis is None, "invariant basis of a fixed-point-free isometry")
        else:
            require(len(basis) == fix == rank_of(basis), "invariant basis has the wrong rank")
            require(all(apply(matrix, v) == v for v in basis), "invariant vector is moved")

    return Job(f"isometry {command}", ["isometry", command, "--file", path],
               {path: {"lattice": label, "matrix": matrix}},
               check_factor if command == "factor" else check_info)


def _admissible_job(m0: str) -> Job:
    gram = catalog()["L2"]
    n = len(gram)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        matrix[i][i] = -1
    if m0 == "Zh":
        matrix[16][16] = matrix[17][17] = 0
        matrix[16][17] = matrix[17][16] = 1
    else:
        matrix[16][16] = matrix[17][17] = 1
    matrix[n - 1][n - 1] = 1
    trace = sum(matrix[i][i] for i in range(n))

    def check(p):
        basis = p["invariant_basis"]
        r = fixed_rank(matrix)
        require(p["m0"] == m0 and p["trace"] == trace and p["t"] == trace + 2, "wrong trace")
        require(p["invariant_rank"] == r == len(basis) == rank_of(basis),
                "invariant basis has the wrong rank")
        require(all(apply(matrix, v) == v for v in basis), "invariant vector is moved")
        g = induced_gram(gram, basis)
        require(p["induced_gram"] == g, "wrong induced Gram matrix")
        pos, neg = signature(g)
        require(p["hyperbolic"] == ((pos, neg) == (1, r - 1)), "wrong hyperbolic flag")
        # The -1 eigenspace is orthogonal to the fixed part, so its positive
        # index is 3 - pos; an orthogonal mirror basis gives the spinor norm.
        require(p["spinor_norm"] == (-1) ** (signature(gram)[0] - pos), "wrong spinor norm")

    return Job("isometry admissible", ["isometry", "admissible", "--m0", m0], check=check)


def involution_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"involution:{seed}")
    turns = {tier: itertools.cycle(labels) for tier, labels in TIERS.items()}
    jobs = []
    for k, tier in enumerate(BLOCK * BLOCKS):
        label = next(turns[tier])
        rank = len(catalog()[label])
        jobs.append(_isometry_job(rng, f"{workdir}/iso-{k}.json", label,
                                  ("factor", "info")[k // len(BLOCK) % 2 ^ k % 2],
                                  RANK23_WORD if tier == "rank23" else max(2, rank // 2)))
    for at, m0 in sorted(ADMISSIBLE_AT.items()):
        jobs.insert(at, _admissible_job(m0))
    return jobs


# ---------------------------------------------------------------------------
# walls: box-search wall enumeration and rank-2 chambers on L2

F1, G1, E = 16, 17, 22   # a hyperbolic plane (f, g) and the Z(-2) summand e of L2
# (rank, bound) of the box-search jobs.  Rank 4 at bound 8 is the costliest and
# makes up 16% of all jobs, so p90 falls well inside its cluster.
BOX_SPECS = ((4, 8), (2, 30), (3, 12), (4, 8), (2, 50), (4, 8), (3, 16), (4, 6), (4, 8),
             (2, 40))
WALLS_BLOCK = "cbccbcbccb"   # c: chambers job on an exact sublattice (60%, so p50 is one), b: box
EXACT_SUBLATTICES = 3
WALLS_BLOCKS = 24


def _split_rank2():
    """(p, q, r, s, t) with u1 = p f + q g and u2 = r eps + s e + t f split over Q."""
    out = []
    for p in range(1, 4):
        for q in range(1, 4):
            for r in range(3):
                for s in range(3):
                    for t in range(3):
                        disc = (t * q) ** 2 + 4 * p * q * (r * r + s * s)
                        if r + s and math.isqrt(disc) ** 2 == disc:
                            out.append((p, q, r, s, t))
    return out


def _exact_sublattice(rng, need_symmetry: bool):
    gram = catalog()["L2"]
    n = len(gram)
    choices = [c for c in _split_rank2() if not need_symmetry or c[4] == 0]
    while True:
        p, q, r, s, t = rng.choice(choices)
        basis = [_unit(n, (F1, p), (G1, q)),
                 _unit(n, (rng.randrange(16), r), (E, s), (F1, t))]
        walls = exact_rank2_walls(gram, basis)
        if walls:
            return basis, walls


def _box_sublattice(rng, rank: int):
    """Distinct simple roots of the two E8 summands: a negative definite
    sublattice (so rank 2 is never split over Q).  Its box holds a few dozen
    walls at most, so the scan of the box, which does not depend on the seed,
    sets the cost of the job."""
    n = len(catalog()["L2"])
    return [_unit(n, (i, 1)) for i in sorted(rng.sample(range(16), rank))]


@lru_cache(maxsize=64)
def _box_walls(basis: tuple[tuple[int, ...], ...], bound: int) -> dict:
    return walls_in_box(catalog()["L2"], basis, bound)


def _delta_job(path: str, label: str, basis, bound: int) -> Job:
    gram = catalog()["L2"]
    g = induced_gram(gram, basis)
    key = tuple(map(tuple, basis))

    def check(p):
        require(p["lattice"] == label and p["ambient"] == "L2" and p["rank"] == len(basis),
                "wrong header")
        require(p["completeness"] == {"kind": "bounded", "bound": bound}, "wrong certificate")
        got = {}
        for entry in p["vectors"]:
            v, norm = tuple(entry["coords"]), entry["norm"]
            require(pair(g, v, v) == norm, f"{v} does not have norm {norm}")
            require(norm == -2 or (norm == -10 and oracle.ambient_divisibility(gram, basis, v) == 2),
                    f"{v} is not a wall vector")
            got[v] = norm
        want = _box_walls(key, bound)
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        require(not missing, f"missing wall vectors {missing[:3]}")
        require(not extra, f"wall vectors outside the box {extra[:3]}")
        require(p["count"] == len(got) == len(p["vectors"]), "wrong wall count")

    return Job("delta enum", ["delta", "enum", "--lattice", path, "--bound", str(bound)],
               {path: {"ambient": "L2", "basis": basis, "label": label}}, check)


def _chambers_jobs(path: str, gens_path: str, label: str, basis, walls) -> list[Job]:
    gram = catalog()["L2"]
    g2 = induced_gram(gram, basis)
    anchor = (1, 0)
    pairs, boundary = oracle.chambers(g2, walls, anchor)
    candidates = [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]
    gens = [m for m in candidates if generator_ok(g2, walls, anchor, m)]
    doc = {"ambient": "L2", "basis": basis, "label": label}
    common = ["--lattice", path, "--anchor", "1,0"]

    def check_rank2(p):
        require(p["lattice"] == label and p["anchor"] == [1, 0], "wrong header")
        require(p["wall_count"] == len(walls), f"{p['wall_count']} walls, expected {len(walls)}")
        require(len(p["chambers"]) == len(pairs), "wrong number of chambers")
        for i, (c, (low, high)) in enumerate(zip(p["chambers"], pairs)):
            require(c["index"] == i + 1 and tuple(c["ray_low"]) == low
                    and tuple(c["ray_high"]) == high, f"chamber {i + 1} has the wrong rays")
            for ray, tag in ((low, c["tag_low"]), (high, c["tag_high"])):
                if ray in boundary:
                    require(tag == {"kind": "isotropic"}, f"ray {ray} should be isotropic")
                else:
                    d = tuple(tag["delta"])
                    require(tag["kind"] == "wall" and d in walls and pair(g2, ray, d) == 0,
                            f"ray {ray} is not cut out by wall {d}")
            require(c["interior_sample"] == [low[0] + high[0], low[1] + high[1]],
                    "wrong interior sample")
            require(c["natural"] == any(abs(r[0]) == 1 and r[1] == 0 for r in (low, high)),
                    "wrong naturality flag")

    def check_orbits(p):
        want = oracle.orbits(pairs, gens)
        require(p["chamber_count"] == len(pairs) and p["orbit_count"] == len(want)
                and p["orbits"] == want, "wrong chamber orbits")

    def check_plot(text):
        require(svg_shapes(text) == (len(pairs), len(pairs) + 1),
                "picture does not show every chamber and ray")

    return [
        Job("chambers rank2", ["chambers", "rank2", *common, "--m0", "1,0"], {path: doc},
            check_rank2),
        Job("chambers orbits", ["chambers", "orbits", *common, "--generators", gens_path],
            {path: doc, gens_path: {"generators": gens}}, check_orbits),
        Job("chambers plot", ["chambers", "plot", *common], {path: doc}, check_plot, svg=True),
    ]


def walls_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"walls:{seed}")
    chambers_cycle = []
    for k in range(EXACT_SUBLATTICES):
        basis, walls = _exact_sublattice(rng, need_symmetry=k < 2)
        chambers_cycle += _chambers_jobs(f"{workdir}/exact-{k}.json", f"{workdir}/gens-{k}.json",
                                         f"X{k}", basis, walls)
    box_cycle = [_delta_job(f"{workdir}/box-{k}.json", f"B{k}", _box_sublattice(rng, rank), bound)
                 for k, (rank, bound) in enumerate(BOX_SPECS)]
    chambers_jobs, box_jobs = itertools.cycle(chambers_cycle), itertools.cycle(box_cycle)
    return [next(chambers_jobs if slot == "c" else box_jobs)
            for _ in range(WALLS_BLOCKS) for slot in WALLS_BLOCK]


# ---------------------------------------------------------------------------
# survey: many short commands with no shared inputs

SERIES = ("todd", "sigmoid", "ch", "ch-dual", "eq-todd", "eq-ch")
GRAM_RANKS = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 22, 23)
ODD_T = tuple(range(-19, 22, 2))
VERIFY_ALL_NAMES = ["weight3_product_identity", "series_reference_tables",
                    "rank2_wall_and_chamber_example", "characteristic_integral_all_t"]


def _random_gram(rng, n: int) -> list[list[int]]:
    """A nondegenerate block-diagonal Gram matrix with blocks of size one or two.

    The program's Smith normal form stalls on some band and 3x3-block Gram
    matrices (see the ``lattice-info-band23`` probe), so the timed jobs keep to
    shapes on which it finishes.
    """
    while True:
        g = [[0] * n for _ in range(n)]
        i = 0
        while i < n:
            size = min(rng.randint(1, 2), n - i)
            for a in range(i, i + size):
                for b in range(a, i + size):
                    g[a][b] = g[b][a] = rng.randint(-4, 4)
            i += size
        if det(g) != 0:
            return g


def _lattice_job(argv: list[str], docs: dict, label: str, gram) -> Job:
    n = len(gram)
    pos, neg = signature(gram)
    want = {"label": label, "rank": n, "det": det(gram), "signature": [pos, neg],
            "even": all(gram[i][i] % 2 == 0 for i in range(n)),
            "hyperbolic": (pos, neg) == (1, n - 1)}

    def check(p):
        group = [int(rational(d)) for d in p["discriminant_group"]]
        got = dict(p, det=int(rational(p["det"])))
        for key, value in want.items():
            require(got[key] == value, f"{key}: got {got[key]!r}, expected {value!r}")
        require(group == discriminant_group(gram), "wrong discriminant group")
        require(p["two_elementary"] == all(d == 2 for d in group), "wrong 2-elementary flag")

    return Job("lattice info", ["lattice", "info", *argv], docs, check)


def _forms_expand_job(rng, series: str, cap: int) -> Job:
    points = [{b: (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for b in "FN"}
              for _ in range(3)]

    def check(p):
        require(p["series"] == series and p["weight"] == cap and isinstance(p["text"], str),
                "wrong header")
        oracle.check_series_terms(series, cap, p["terms"], points)

    return Job("forms expand", ["forms", "expand", "--series", series, "--weight", str(cap)],
               check=check)


def _forms_verify_job(which: str) -> Job:
    names = {"product": ["weight3_product_identity"], "lemma33": ["weight3_product_identity"],
             "tables": ["series_reference_tables"],
             "all": ["weight3_product_identity", "series_reference_tables"]}[which]

    def check(p):
        require([c["name"] for c in p["checks"]] == names, "wrong checks")
        require(p["all_passed"] is True and all(c["passed"] for c in p["checks"]),
                "an identity check failed")

    return Job("forms verify", ["forms", "verify", which], check=check)


def _verify_all_job() -> Job:
    gram = catalog()["L2"]
    n = len(gram)
    flagship = [_unit(n, (F1, 1), (G1, 1)), _unit(n, (E, 1))]
    walls = [list(v) for v in exact_rank2_walls(gram, flagship)]

    def check(p):
        require([c["name"] for c in p["checks"]] == VERIFY_ALL_NAMES, "wrong checks")
        require(p["all_passed"] is True, "an identity check failed")
        require(p["checks"][2]["walls"] == walls, "wrong walls in the rank-2 example")

    return Job("verify-all", ["verify-all"], check=check)


def _spectrum(rng) -> dict:
    if rng.random() < 0.5:
        return {"kind": "finite", "entries": [[round(rng.uniform(0.1, 50), 6),
                                               round(rng.uniform(-3, 3), 6)]
                                              for _ in range(rng.randint(1, 5))]}
    return {"kind": "power", "a": round(rng.uniform(0.1, 10), 6),
            "p": round(rng.uniform(0.5, 4), 6), "w": round(rng.uniform(-2, 2), 6)}


def _zeta_job(rng, path: str) -> Job:
    spectrum = _spectrum(rng)
    return Job("zeta dzeta", ["zeta", "dzeta", "--spectrum", path], {path: spectrum},
               lambda p: close(p["dzeta0"], oracle.dzeta(spectrum), "dzeta0"))


def _torsion_job(rng, path: str) -> Job:
    dim = rng.randint(2, 6)
    spectra = {str(q): _spectrum(rng) for q in sorted(rng.sample(range(dim + 1), 2))}
    tau = oracle.torsion(spectra)

    def check(p):
        require(p["dim"] == dim, "wrong dimension")
        close(p["torsion"], tau, "torsion")
        close(p["log"], math.log(tau), "log torsion")

    return Job("torsion eq", ["torsion", "eq", "--spectra", path, "--dim", str(dim)],
               {path: spectra}, check)


def _invariant_job(rng, path: str) -> Job:
    doc = {k: round(rng.uniform(0.2, 5), 6)
           for k in ("tau_iota", "vol_X", "tau_O_fix", "vol_fix", "vol_L2_H1")}
    doc["t"] = rng.choice(ODD_T)
    exp_vol = Fraction((doc["t"] - 1) * (doc["t"] - 7), 16)
    value = (doc["tau_iota"] * doc["vol_X"] ** float(exp_vol) * doc["tau_O_fix"] ** -2
             * doc["vol_fix"] ** -2 * doc["vol_L2_H1"])

    def check(p):
        close(p["invariant"], value, "invariant")
        close(p["log"], math.log(value), "log invariant")
        require(rational(p["exp_vol"]) == exp_vol, "wrong volume exponent")

    return Job("invariant assemble", ["invariant", "assemble", "--ingredients", path],
               {path: doc}, check)


def _numerology_job(t: int) -> Job:
    want = oracle.numerology(t)

    def check(p):
        require(set(p) == set(want), "wrong numerology fields")
        bad = [k for k, v in want.items() if rational(p[k]) != v]
        require(not bad, f"wrong numerology values {bad}")

    return Job("numerology", ["numerology", "--t", str(t)], check=check)


def _malformed_jobs(rng, workdir: str) -> list[Job]:
    """Documents and arguments the program must refuse with a JSON error."""
    a = rng.randint(1, 5)
    p = [f"{workdir}/bad-{k}.json" for k in range(10)]
    spec = [
        (["lattice", "info", "--file", p[0]], {p[0]: {"gram": [[a, a], [a, a]]}}),
        (["lattice", "info", "--file", p[1]], {p[1]: {"gram": [[a, 1, 0], [1, a]]}}),
        (["lattice", "info", "--file", p[2]], {p[2]: {"gram": [[a, 1], [2, a]]}}),
        (["lattice", "info", "--file", p[3]], {p[3]: {"gram": [["x", 1], [1, a]]}}),
        (["lattice", "info", "--name", f"Nope{a}"], {}),
        (["numerology", "--t", str(rng.choice((2 * a, 23 + 2 * a)))], {}),
        (["forms", "expand", "--series", f"bogus{a}"], {}),
        (["invariant", "assemble", "--ingredients", p[4]], {p[4]: {"t": 2 * a + 1}}),
        (["torsion", "eq", "--spectra", p[5], "--dim", "2"],
         {p[5]: {"1": {"kind": "finite", "entries": [[-a, 1]]}}}),
        (["zeta", "dzeta", "--spectrum", p[6]], {p[6]: '{"kind": "finite", "entries": ['}),
    ]
    return [Job("malformed", argv, docs) for argv, docs in spec]


def survey_jobs(seed: int, workdir: str, pass_index: int = 0) -> list[Job]:
    rng = random.Random(f"survey:{seed}:{pass_index}")
    path = iter(f"{workdir}/s-{k}.json" for k in range(1000)).__next__
    jobs = []
    for i, label in enumerate(sorted(catalog())):
        gram = catalog()[label]
        scale = rng.choice((-1, 2, 3)) if i % 3 == 0 else 1
        scaled = [[scale * x for x in row] for row in gram]
        jobs.append(_lattice_job(["--name", label, "--scale", str(scale)], {},
                                 f"{label}({scale})" if scale != 1 else label, scaled))
    for i, n in enumerate(GRAM_RANKS):
        gram, doc_path = _random_gram(rng, n), path()
        scale = rng.choice((-1, 2, 5)) if i % 3 == 0 else 1
        label = f"R{n}"
        jobs.append(_lattice_job(["--file", doc_path, "--scale", str(scale)],
                                 {doc_path: {"label": label, "gram": gram}},
                                 f"{label}({scale})" if scale != 1 else label,
                                 [[scale * x for x in row] for row in gram]))
    for series in SERIES:
        for _ in range(2):
            jobs.append(_forms_expand_job(rng, series, rng.randint(4, 20)))
    jobs += [_forms_verify_job(rng.choice(("product", "lemma33", "tables", "all")))
             for _ in range(2)]
    jobs.append(_verify_all_job())
    for make in (_zeta_job, _torsion_job, _invariant_job):
        jobs += [make(rng, path()) for _ in range(8)]
    jobs += [_numerology_job(t) for t in ODD_T]
    jobs += _malformed_jobs(rng, workdir)
    rng.shuffle(jobs)
    return jobs


def defect_probes(workdir: str) -> list[tuple[str, Job]]:
    """Inputs on which the program crashes or prints non-JSON (roadmap item 4),
    an argument argparse refuses with plain text, and a rank-23 band Gram
    matrix whose Smith normal form does not finish.  A probe passes when the
    program gives a strict-JSON result or a JSON error with exit 1 or 2."""
    ing = {"tau_iota": 1.5, "vol_X": 2.0, "tau_O_fix": 0.7, "vol_fix": 1.1,
           "vol_L2_H1": 0.9, "t": 5}
    docs = {
        "invariant-nan": ("ingredients", dict(ing, tau_iota="nan")),
        "invariant-overflow": ("ingredients", dict(ing, tau_iota=1e300, tau_O_fix=1e-200)),
        "torsion-inf": ("spectra", {"1": {"kind": "finite", "entries": [["inf", 1]]}}),
        "torsion-1e300": ("spectra", {"2": {"kind": "finite", "entries": [[1e300, 1]]}}),
        "torsion-1e-300": ("spectra", {"2": {"kind": "finite", "entries": [[1e-300, 1]]}}),
        "zeta-nan": ("spectrum", {"kind": "power", "a": "nan", "p": 2, "w": 1}),
    }
    diag = [2, -3, 3, -4, 3, 2, -4, 0, 0, 3, -3, 1, -3, 1, -1, -2, 4, 1, -4, -1, -2, -4, -3]
    off = [0, -1, 0, -2, 2, 1, -1, 2, -1, -3, -1, -3, 3, -3, 1, -2, -1, 2, 3, 3, -1, 2]
    band = [[diag[i] if i == j else off[min(i, j)] if abs(i - j) == 1 else 0
             for j in range(23)] for i in range(23)]
    docs["lattice-info-band23"] = ("file", {"label": "band23", "gram": band})
    command = {"ingredients": ["invariant", "assemble"], "spectra": ["torsion", "eq"],
               "spectrum": ["zeta", "dzeta"], "file": ["lattice", "info"]}
    probes = []
    for name, (flag, doc) in docs.items():
        p = f"{workdir}/probe-{name}.json"
        extra = ["--dim", "2"] if flag == "spectra" else []
        probes.append((name, Job("probe", [*command[flag], f"--{flag}", p, *extra], {p: doc})))
    probes.append(("numerology-argparse", Job("probe", ["numerology", "--t", "abc"])))
    return probes


def jobs_for(workload: str, seed: int, workdir: str, pass_index: int = 0) -> list[Job]:
    if workload == "involution":
        return involution_jobs(seed, workdir)
    if workload == "walls":
        return walls_jobs(seed, workdir)
    return survey_jobs(seed, workdir, pass_index)
