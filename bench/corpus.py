"""Seeded case corpus for the benchmark workloads.

Pure standard library: the forms are built and printed here, not by the
package under test, so a change to the package cannot change its inputs.

A case is one CLI invocation.  `generate(workload, seed)` returns a list of
rounds; each round is a list of case dicts with keys

    id     stable case id, "<workload>/<round>/<index>-<kind>"
    argv   the CLI argument vector (always JSON output, --jobs 1)
    kind   "fixture", "analyze", "decompose" or "verify"
    check  what the independent checker needs (form degree and raw
           monomial coefficients, family oracle, planted length, ...)

Every round of a workload has the same shape (the same number of cases of
each kind and degree), so a run that completes whole rounds always measures
the same mix.  The same seed gives byte-identical cases; `digest` is the
sha256 of their canonical JSON.

Heavy cases (seconds each) are fixed reference forms, repeated in every
round; the seed draws the cheap cases.  Seeded heavy forms made the
run-to-run spread across seeds far too wide: one run holds only a handful
of them and their cost is heavy-tailed (a planted degree-10 pencil took
0.6 s to 18 s), so the mix of each run, not the code, set the figures.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence

WORKLOADS = ("paper", "pencil", "search")

ROUNDS = 48

# Reduced candidate budgets of the search workload.  The reference forms
# get enough that rejecting candidates is the largest share of their time;
# the seeded forms get less, so that an inconclusive one stays cheaper than
# every reference and the seed moves the run's total little.
SEARCH_BUDGET = 200
SEEDED_SEARCH_BUDGET = 50

COMMON = ["--output", "json", "--jobs", "1"]

FIXTURE_IDS = (
    "parse-monomial",
    "parse-sextic-family",
    "quartic-difference-identity",
    "quartic-difference-certificate",
    "sextic-identity-exact",
    "sextic-identity-decomp",
    "sextic-split-representation",
    "catalecticant-family-matrix",
    "catalecticant-example-inertia",
    "catalecticant-family-inertia",
    "circle-power-width",
    "psd-test-indefinite",
    "hankel-kernel-sextic",
    "hankel-kernel-trivial",
    "biquadratic-pencil-excluded",
    "sextic-length-four",
    "sextic-length-five",
    "sextic-splits",
    "sextic-oracle-grid",
    "mirror-swaps-badges",
    "structured-quintic-valid",
    "quintic-example-validation",
    "quartic-classification",
    "quartic-boundary-exact",
    "quartic-jump",
    "sextic-jump",
    "downward-jump",
    "second-sextic-family",
    "second-family-witness",
    "badge-search-quintic",
    "incomparable-constraints",
    "splitting-product",
    "vandermonde-fallback",
    "lower-bound-examples",
    "substitution-invariance",
    "inner-product-reproducing",
    "certified-circle-identity",
)

# The README's worked examples; the sweep example's grid points and limit
# run through analyze.
README_VERIFY_REP = {
    "degree": 4,
    "terms": [
        {"coeff": "1", "form": ["1", "2"]},
        {"coeff": "-4", "form": ["1", "1"]},
        {"coeff": "6", "form": ["1", "0"]},
        {"coeff": "-4", "form": ["1", "-1"]},
        {"coeff": "1", "form": ["1", "-2"]},
    ],
}
README_SWEEP_GRID = ("-1", "0", "1/2", "1")


# ---------------------------------------------------------------------------
# Forms as raw monomial coefficients: raw[j] multiplies x^(d-j) y^j
# ---------------------------------------------------------------------------


def frac_text(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def form_text(raw: Sequence[Fraction]) -> str:
    """Print a form in the CLI grammar, highest x power first."""
    d = len(raw) - 1
    pieces = []
    for j, c in enumerate(raw):
        c = Fraction(c)
        if c == 0:
            continue
        mono = []
        if d - j:
            mono.append("x" if d - j == 1 else f"x^{d - j}")
        if j:
            mono.append("y" if j == 1 else f"y^{j}")
        mag = abs(c)
        if mag != 1 or not mono:
            mono.insert(0, frac_text(mag))
        pieces.append(("-" if c < 0 else "+", "*".join(mono)))
    if not pieces:
        return "0"
    sign, head = pieces[0]
    return ("-" if sign == "-" else "") + head + "".join(f" {s} {m}" for s, m in pieces[1:])


def linear_power_raw(beta: int, d: int) -> List[Fraction]:
    """Raw coefficients of (x + beta*y)^d."""
    return [Fraction(comb(d, j) * beta**j) for j in range(d + 1)]


def sextic_xy_raw(t: Fraction) -> List[Fraction]:
    return [Fraction(v) for v in (0, 6, 0, 20 * t, 0, 6, 0)]


def quartic_jump_raw(t: Fraction) -> List[Fraction]:
    return [Fraction(v) for v in (t, 0, 6, 0, t)]


def circle_conic_raw(u: Fraction) -> List[Fraction]:
    return [Fraction(v) for v in (1, 0, 1 + u, 0, u)]


def power_plus_circle_raw(s: int, t: Fraction) -> List[Fraction]:
    raw = [Fraction(0)] * (2 * s + 1)
    for i in range(s + 1):
        raw[2 * i] = t * comb(s, i)
    raw[0] += 1
    return raw


def cube_difference_raw(t: Fraction) -> List[Fraction]:
    return [Fraction(v) for v in (1, 0, 15 * t - 3, 0, 3 - 15 * t, 0, -1)]


# ---------------------------------------------------------------------------
# Case builders
# ---------------------------------------------------------------------------


def _form_case(kind: str, raw, extra_argv=(), **check) -> Dict:
    raw = [Fraction(c) for c in raw]
    text = form_text(raw)
    check.update(degree=len(raw) - 1, raw=[frac_text(c) for c in raw])
    return {
        "kind": kind,
        "argv": [kind, text, *COMMON, *extra_argv],
        "check": check,
    }


def _fixture_case(fixture_id: str) -> Dict:
    return {
        "kind": "fixture",
        "argv": ["fixtures", "--filter", fixture_id, *COMMON],
        "check": {"fixture": fixture_id},
    }


def verify_case(rep: Dict, expected_text: str) -> Dict:
    """A verify invocation reading the representation JSON from stdin."""
    return {
        "kind": "verify",
        "argv": ["verify", "-", expected_text, *COMMON],
        "stdin": json.dumps(rep, sort_keys=True),
        "check": {},
    }


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int = 6) -> Fraction:
    """A seeded rational strictly inside (lo, hi) with denominator <= max_den."""
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(int(lo * den) - 1, int(hi * den) + 1)
        q = Fraction(num, den)
        if lo < q < hi:
            return q


def _paper_round(rng: random.Random) -> List[Dict]:
    cases = [_fixture_case(fid) for fid in FIXTURE_IDS]
    # README examples.
    cases.append(_form_case("analyze", sextic_xy_raw(Fraction(0)), sextic_param="0"))
    cases.append(_form_case("decompose", sextic_xy_raw(Fraction(1))))
    cases.append(verify_case(README_VERIFY_REP, "24*y^4"))
    for t in README_SWEEP_GRID:
        t = Fraction(t)
        cases.append(_form_case("analyze", sextic_xy_raw(t), sextic_param=frac_text(t)))
    # sextic_xy_family: one member per range of the thm-4.4 case split plus
    # the two boundary values, analysed; the conclusive ranges decomposed too.
    strata = [
        (Fraction(0), Fraction(3)),
        (Fraction(-3, 5), Fraction(0)),
        (Fraction(-3), Fraction(-3, 5)),
    ]
    for lo, hi in strata:
        t = _rational(rng, lo, hi)
        cases.append(_form_case("analyze", sextic_xy_raw(t), sextic_param=frac_text(t)))
        if t > Fraction(-3, 5):
            cases.append(_form_case("decompose", sextic_xy_raw(t)))
    t = Fraction(-3, 5)
    cases.append(_form_case("analyze", sextic_xy_raw(t), sextic_param=frac_text(t)))
    # Quartic families (thm-4.1/4.2, thm-2.7) and circle_conic_quartic,
    # definite and indefinite in fixed numbers.  These are the cheapest
    # cases and alike in cost; there are enough of them that the median case
    # is one of them, so the median does not hinge on the seeded mix.
    for _ in range(10):
        m = rng.randint(2, 9)
        cases.append(_form_case("analyze", quartic_jump_raw(Fraction(1, m))))
        cases.append(_form_case("analyze", quartic_jump_raw(_rational(rng, Fraction(0), Fraction(4)))))
        for lo, hi in ((Fraction(0), Fraction(4)), (Fraction(-4), Fraction(0))):
            cases.append(_form_case("analyze", circle_conic_raw(_rational(rng, lo, hi))))
    for lo, hi in ((Fraction(0), Fraction(4)), (Fraction(-4), Fraction(0))):
        cases.append(_form_case("decompose", circle_conic_raw(_rational(rng, lo, hi))))
    # power_plus_circle_family, s = 3 on both sides of 0, s = 4 in the cone.
    for lo, hi in ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(3))):
        cases.append(_form_case("analyze", power_plus_circle_raw(3, _rational(rng, lo, hi))))
    cases.append(_form_case("analyze", power_plus_circle_raw(4, _rational(rng, Fraction(0), Fraction(3)))))
    return cases


def _pencil_case(rng: random.Random, d: int) -> Dict:
    s = d // 2
    betas = rng.sample(range(-9, 10), s + 1)
    lams = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in betas]
    raw = [Fraction(0)] * (d + 1)
    parts = []
    for lam, beta in zip(lams, betas):
        for j, c in enumerate(linear_power_raw(beta, d)):
            raw[j] += lam * c
        lin = "x" if beta == 0 else f"x {'+' if beta > 0 else '-'} {abs(beta)}*y"
        parts.append(("-" if lam < 0 else "+", f"{abs(lam)}*({lin})^{d}"))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    text += "".join(f" {sign} {term}" for sign, term in parts[1:])
    return {
        "kind": "decompose",
        "argv": ["decompose", text, *COMMON],
        "check": {
            "degree": d,
            "raw": [frac_text(c) for c in raw],
            "max_length": s + 1,
            "conclusive": True,
        },
    }


def _random_raw(rng: random.Random, d: int) -> List[int]:
    """The ROADMAP Baseline recipe: lead randint(1, 9), the rest randint(-9, 9)."""
    return [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(d)]


def reference_pencils() -> List[Dict]:
    """Planted pencils at d = 8, 10, 12: the first draws of random.Random(0)."""
    rng = random.Random(0)
    return [_pencil_case(rng, d) for d in (8, 10, 12)]


def reference_search_forms() -> List[List[int]]:
    """The ROADMAP Baseline forms of degree 8 and 10 (random.Random(1), drawn
    in the order d = 4, 6, ..., 12) and the degree-8 form of the stream's
    second pass."""
    rng = random.Random(1)
    first = {d: _random_raw(rng, d) for d in (4, 6, 8, 10, 12)}
    second = {d: _random_raw(rng, d) for d in (4, 6, 8)}
    return [first[8], first[10], second[8]]


def _pencil_round(rng: random.Random) -> List[Dict]:
    # The two fresh sextic pencils are cheaper than every reference pencil,
    # so the median case is the degree-8 reference.
    return [_pencil_case(rng, 6), _pencil_case(rng, 6)] + reference_pencils()


def _search_round(rng: random.Random) -> List[Dict]:
    # Two fresh cheap cases and three references: the median case is the
    # cheapest reference.
    seeded = ["--search-budget", str(SEEDED_SEARCH_BUDGET)]
    t = _rational(rng, Fraction(-1), Fraction(1), max_den=15)
    cases = [
        _form_case("analyze", _random_raw(rng, 6), seeded),
        _form_case("analyze", cube_difference_raw(t), seeded),
    ]
    budget = ["--search-budget", str(SEARCH_BUDGET)]
    cases += [_form_case("analyze", raw, budget) for raw in reference_search_forms()]
    return cases


_ROUND_BUILDERS = {
    "paper": _paper_round,
    "pencil": _pencil_round,
    "search": _search_round,
}


def generate(workload: str, seed: int) -> List[List[Dict]]:
    if workload not in _ROUND_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    out = []
    for r in range(ROUNDS):
        cases = _ROUND_BUILDERS[workload](rng)
        for k, case in enumerate(cases):
            case["id"] = f"{workload}/{r:03d}/{k:02d}-{case['kind']}"
        out.append(cases)
    return out


def digest(rounds: List[List[Dict]]) -> str:
    blob = json.dumps(rounds, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
