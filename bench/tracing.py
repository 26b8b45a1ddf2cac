"""Spans recorded from outside the package, and the per-layer metrics
computed from them.

`Tracer` (worker side) wraps the public functions of the traced modules and
a few hot methods.  The package binds many names by value (`engine` imports
`kernel_basis` from `quadforms`, `cli` and `fixtures` import `engine`
functions), so each wrapper is installed on every `binforms` module that
holds the original object, not only on the defining module.

A span is `(parent, name, start, end, note)`; its id is its index in the
case's span list and `parent` is -1 at the top.  `note` carries what a
metric needs from the call: the rejection reason of `validate_sylvester`,
the matrix size of `det_poly_matrix`, the certification of
`solve_coefficients`, the search budget of `real_length`/`badge_search`.

The functions below the tracer (parent side, standard library only) turn
span lists into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PACKAGE = "binforms"
TRACED_MODULES = ("engine", "quadforms", "realroots", "forms", "jsonio", "cli", "fixtures")

# (module, class, method): traced as "<module>.<class>.<method>".
TRACED_METHODS = (
    ("realroots", "UniPoly", "gcd"),
    ("realroots", "UniPoly", "count_real_roots"),
    ("realroots", "RealAlgebraic", "isolate"),
    ("realroots", "RealAlgebraic", "refined"),
)

VALIDATE = "engine.validate_sylvester"
SEARCH_PARENTS = ("engine.real_length", "engine.badge_search")

# Spans each workload must record; a traced run that records none of one of
# these has gone blind (a binding the tracer missed) and fails loudly.
EXPECTED = {
    "paper": (
        "cli.main",
        "forms.parse_form",
        "quadforms.inertia",
        "quadforms.kernel_basis",
        "jsonio.report_to_json",
        "engine.validate_sylvester",
        "engine.solve_coefficients",
        "fixtures.run_fixtures",
    ),
    "pencil": (
        "engine.real_length",
        "engine.decide_pencil",
        "quadforms.det_poly_matrix",
        "quadforms.charpoly_general",
        "engine.validate_sylvester",
        "engine.solve_coefficients",
        "realroots.RealAlgebraic.isolate",
        "realroots.RealAlgebraic.refined",
        "realroots.UniPoly.gcd",
        "realroots.UniPoly.count_real_roots",
    ),
    "search": (
        "engine.real_length",
        "engine.badge_search",
        "engine.validate_sylvester",
        "engine.decide_pencil",
        "realroots.UniPoly.gcd",
        "realroots.UniPoly.count_real_roots",
    ),
}


class TracingBlindError(RuntimeError):
    """A wrapped function recorded no span where the workload must hit it."""


# ---------------------------------------------------------------------------
# Worker side: wrappers
# ---------------------------------------------------------------------------


def _note_validate(args, kwargs, result, exc):
    r = args[1] if len(args) > 1 else kwargs.get("r")
    return [r, getattr(exc, "reason", None) if exc is not None else ""]


def _note_det(args, kwargs, result, exc):
    return len(args[0] if args else kwargs["entries"])


def _note_solve(args, kwargs, result, exc):
    return getattr(result, "certification", None)


def _budget_note(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, result, exc):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["config"].search_budget

    return note


class Tracer:
    """Installs span-recording wrappers into the loaded `binforms` package.

    `spans` is the list of the case in progress; the caller takes it and
    calls `reset()` between cases.
    """

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []
        self.bindings: Dict[str, int] = {}

    def reset(self) -> None:
        del self.spans[:]
        del self._stack[1:]

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (
                    parent,
                    name,
                    start,
                    end,
                    note(args, kwargs, result, exc) if note else None,
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @staticmethod
    def _modules():
        return [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__: m for m in self._modules()}
        self.bindings = {}
        wrappers: Dict[int, Tuple[object, Callable, str]] = {}
        special = {
            VALIDATE: _note_validate,
            "quadforms.det_poly_matrix": _note_det,
            "engine.solve_coefficients": _note_solve,
        }
        for short in TRACED_MODULES:
            mod = modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                note = special.get(name)
                if name in SEARCH_PARENTS:
                    note = _budget_note(obj)
                wrappers[id(obj)] = (obj, self._wrap(name, obj, note), name)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                    self.bindings[hit[2]] = self.bindings.get(hit[2], 0) + 1
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[f"{PACKAGE}.{short}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            self._patches.append((cls, meth, raw))
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(self._wrap(name, raw.__func__, None)))
            else:
                setattr(cls, meth, self._wrap(name, raw, None))
            self.bindings[name] = 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self, origin: float) -> List[list]:
        """The case's spans as JSON-ready lists, times in seconds from origin."""
        out = [
            [p, name, start - origin, end - origin, note]
            for (p, name, start, end, note) in self.spans
        ]
        self.reset()
        return out


# ---------------------------------------------------------------------------
# Parent side: span arithmetic and the per-layer metrics
# ---------------------------------------------------------------------------

Span = Sequence  # [parent, name, start, end, note]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span run one after another on a single thread, so the
    covered part is the sum of their durations clipped to the parent.
    """
    covered = [0.0] * len(spans)
    for parent, _name, start, end, _note in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][2], spans[parent][3]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [max(0.0, s[3] - s[2] - covered[i]) for i, s in enumerate(spans)]


def _outermost_total(spans: Sequence[Span], member: Callable[[str], bool]) -> float:
    """Total time inside spans matching `member`, counting nested ones once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (parent, name, start, end, _note) in enumerate(spans):
        hit = member(name)
        enclosed = parent >= 0 and inside[parent]
        inside[i] = hit or enclosed
        if hit and not enclosed:
            total += end - start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


REJECT_REASONS = ("not-squarefree", "complex-roots", "repeated-infinity", "zero-candidate")

# Per-layer metric name -> (unit, better, listed).  The order is the report
# order.  Listed metrics are the per_layer metrics of BENCHMARK.json and the
# only ones in the result line of a --trace 1 run.  The inertia time is
# printed but not listed: the pencil workload never computes an inertia, so
# its value there is exactly 0 on every run.
PER_LAYER_METRICS: Dict[str, Tuple[str, str, bool]] = {
    "engine.validate_sylvester.calls": ("count", "lower", True),
    "engine.validate_sylvester.total_s": ("s", "lower", True),
    "engine.validate_sylvester.accept_ratio": ("ratio", "higher", True),
    "engine.validate_sylvester.us_per_reject": ("us", "lower", True),
    "engine.validate_sylvester.ms_per_accept": ("ms", "lower", True),
    **{f"engine.validate_sylvester.reject.{r}": ("count", "lower", True) for r in REJECT_REASONS},
    "realroots.gcd.calls": ("count", "lower", True),
    "realroots.count_real_roots.calls": ("count", "lower", True),
    "realroots.count_real_roots.total_s": ("s", "lower", True),
    "realroots.gcd_per_validate": ("calls/call", "lower", True),
    "realroots.isolate.calls": ("count", "lower", True),
    "realroots.isolate.total_s": ("s", "lower", True),
    "realroots.refined.calls": ("count", "lower", True),
    "engine.decide_pencil.calls": ("count", "lower", True),
    "engine.decide_pencil.total_s": ("s", "lower", True),
    "engine.decide_pencil.self_s": ("s", "lower", True),
    "quadforms.det_poly_matrix.calls": ("count", "lower", True),
    "quadforms.det_poly_matrix.total_s": ("s", "lower", True),
    "quadforms.det_poly_matrix.max_n": ("n", "lower", True),
    "quadforms.det_poly_matrix.states": ("count", "lower", True),
    "engine.search.candidates": ("count", "lower", True),
    "engine.search.found_ratio": ("ratio", "higher", True),
    "engine.search.exhausted": ("count", "lower", True),
    "engine.search.gen_self_s": ("s", "lower", True),
    "engine.solve_coefficients.calls": ("count", "lower", True),
    "engine.solve_coefficients.total_s": ("s", "lower", True),
    "engine.solve_coefficients.self_s": ("s", "lower", True),
    "engine.solve_coefficients.certified_ratio": ("ratio", "lower", True),
    "quadforms.charpoly_general.total_s": ("s", "lower", True),
    "quadforms.kernel_basis.total_s": ("s", "lower", True),
    "quadforms.inertia.total_s": ("s", "lower", False),
    "forms.parse_form.total_s": ("s", "lower", True),
    "jsonio.total_s": ("s", "lower", True),
    "cli.self_s": ("s", "lower", True),
    "trace.overhead_ratio": ("ratio", "lower", True),
}


class LayerTotals:
    """Accumulates per-layer sums over the cases of one traced run."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.validate_accept_s = 0.0
        self.validate_reject_s = 0.0
        self.validate_accepts = 0
        self.rejects = {r: 0 for r in REJECT_REASONS}
        self.det_max_n = 0
        self.det_states = 0
        self.search_candidates = 0
        self.search_found = 0
        self.search_exhausted = 0
        self.solve_certified = 0
        self.jsonio_s = 0.0
        self.cli_self_s = 0.0
        self.traced_wall = 0.0
        self.untraced_wall = 0.0

    def add_case(self, spans: Sequence[Span]) -> None:
        selfs = self_times(spans)
        names = set()
        for i, (parent, name, start, end, note) in enumerate(spans):
            names.add(name)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]
            if name.startswith("cli."):
                self.cli_self_s += selfs[i]
            if name == VALIDATE:
                _r, reason = note
                if reason:
                    self.validate_reject_s += end - start
                    self.rejects[reason] = self.rejects.get(reason, 0) + 1
                else:
                    self.validate_accept_s += end - start
                    self.validate_accepts += 1
            elif name == "quadforms.det_poly_matrix":
                self.det_max_n = max(self.det_max_n, note)
                self.det_states += 2**note
            elif name == "engine.solve_coefficients" and note == "certified-intervals":
                self.solve_certified += 1
        for name in names:
            self.total[name] = self.total.get(name, 0.0) + _outermost_total(
                spans, lambda n, name=name: n == name
            )
        self.jsonio_s += _outermost_total(spans, lambda n: n.startswith("jsonio."))
        # Budgeted search: validations called directly by real_length or
        # badge_search; an episode is one (caller span, degree r) pair.
        episodes: Dict[Tuple[int, int], int] = {}
        for parent, name, _s, _e, note in spans:
            if name != VALIDATE or parent < 0 or spans[parent][1] not in SEARCH_PARENTS:
                continue
            self.search_candidates += 1
            if not note[1]:
                self.search_found += 1
            key = (parent, note[0])
            episodes[key] = episodes.get(key, 0) + 1
        for (parent, _r), tried in episodes.items():
            if tried >= spans[parent][4]:
                self.search_exhausted += 1

    def metrics(self) -> Dict[str, float]:
        c, t, s = self.calls, self.total, self.self_s
        v_calls = c.get(VALIDATE, 0)
        n_reject = v_calls - self.validate_accepts
        out = {
            "engine.validate_sylvester.calls": v_calls,
            "engine.validate_sylvester.total_s": t.get(VALIDATE, 0.0),
            "engine.validate_sylvester.accept_ratio": _ratio(self.validate_accepts, v_calls),
            "engine.validate_sylvester.us_per_reject": 1e6 * _ratio(self.validate_reject_s, n_reject),
            "engine.validate_sylvester.ms_per_accept": 1e3 * _ratio(self.validate_accept_s, self.validate_accepts),
        }
        for reason in REJECT_REASONS:
            out[f"engine.validate_sylvester.reject.{reason}"] = self.rejects[reason]
        gcd, crr = "realroots.UniPoly.gcd", "realroots.UniPoly.count_real_roots"
        iso, ref = "realroots.RealAlgebraic.isolate", "realroots.RealAlgebraic.refined"
        out.update(
            {
                "realroots.gcd.calls": c.get(gcd, 0),
                "realroots.count_real_roots.calls": c.get(crr, 0),
                "realroots.count_real_roots.total_s": t.get(crr, 0.0),
                "realroots.gcd_per_validate": _ratio(c.get(gcd, 0), v_calls),
                "realroots.isolate.calls": c.get(iso, 0),
                "realroots.isolate.total_s": t.get(iso, 0.0),
                "realroots.refined.calls": c.get(ref, 0),
                "engine.decide_pencil.calls": c.get("engine.decide_pencil", 0),
                "engine.decide_pencil.total_s": t.get("engine.decide_pencil", 0.0),
                "engine.decide_pencil.self_s": s.get("engine.decide_pencil", 0.0),
                "quadforms.det_poly_matrix.calls": c.get("quadforms.det_poly_matrix", 0),
                "quadforms.det_poly_matrix.total_s": t.get("quadforms.det_poly_matrix", 0.0),
                "quadforms.det_poly_matrix.max_n": self.det_max_n,
                "quadforms.det_poly_matrix.states": self.det_states,
                "engine.search.candidates": self.search_candidates,
                "engine.search.found_ratio": _ratio(self.search_found, self.search_candidates),
                "engine.search.exhausted": self.search_exhausted,
                "engine.search.gen_self_s": sum(s.get(n, 0.0) for n in SEARCH_PARENTS),
                "engine.solve_coefficients.calls": c.get("engine.solve_coefficients", 0),
                "engine.solve_coefficients.total_s": t.get("engine.solve_coefficients", 0.0),
                "engine.solve_coefficients.self_s": s.get("engine.solve_coefficients", 0.0),
                "engine.solve_coefficients.certified_ratio": _ratio(
                    self.solve_certified, c.get("engine.solve_coefficients", 0)
                ),
                "quadforms.charpoly_general.total_s": t.get("quadforms.charpoly_general", 0.0),
                "quadforms.kernel_basis.total_s": t.get("quadforms.kernel_basis", 0.0),
                "quadforms.inertia.total_s": t.get("quadforms.inertia", 0.0),
                "forms.parse_form.total_s": t.get("forms.parse_form", 0.0),
                "jsonio.total_s": self.jsonio_s,
                "cli.self_s": self.cli_self_s,
                "trace.overhead_ratio": _ratio(self.traced_wall, self.untraced_wall),
            }
        )
        return out

    def layer_shares(self) -> Dict[str, float]:
        """Time of the main layers as shares of the traced wall time."""
        t = self.total
        parts = {
            "validate_sylvester rejections": self.validate_reject_s,
            "validate_sylvester accepts": self.validate_accept_s,
            "search candidate generation": sum(self.self_s.get(n, 0.0) for n in SEARCH_PARENTS),
            "decide_pencil": t.get("engine.decide_pencil", 0.0),
            "det_poly_matrix": t.get("quadforms.det_poly_matrix", 0.0),
            "solve_coefficients": t.get("engine.solve_coefficients", 0.0),
        }
        return {name: _ratio(v, self.traced_wall) for name, v in parts.items()}

    def self_shares(self) -> List[Tuple[str, float]]:
        """The twelve spans with the largest share of all traced self time."""
        whole = sum(self.self_s.values())
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:12]
        return [(name, _ratio(v, whole)) for name, v in ranked]

    def check_expected(self, workload: str) -> None:
        missing = [n for n in EXPECTED[workload] if not self.calls.get(n)]
        if missing:
            raise TracingBlindError(
                f"traced {workload} run recorded no span for: {', '.join(missing)}"
            )
