"""Tests of the benchmark itself: corpus, span arithmetic, checker, tracer,
deadline handling and a smoke run of every workload.

    python3 -m pytest bench/tests
"""

import json
from pathlib import Path

import pytest

import checks
import corpus
import run
import tracing

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- corpus -------------------------------------------------------------------


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_deterministic(workload):
    a = corpus.generate(workload, 7)
    b = corpus.generate(workload, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert corpus.digest(a) == corpus.digest(b)
    assert corpus.digest(a) != corpus.digest(corpus.generate(workload, 8))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_rounds_have_one_shape(workload):
    rounds = corpus.generate(workload, 3)
    shapes = {
        tuple((c["kind"], c["check"].get("degree")) for c in r) for r in rounds
    }
    assert len(shapes) == 1
    ids = [c["id"] for r in rounds for c in r]
    assert len(ids) == len(set(ids))


def test_form_text_round_trips_through_the_parser():
    from binforms.forms import parse_form

    for r in corpus.generate("search", 1)[:3]:
        for case in r:
            raw = case["check"]["raw"]
            p = parse_form(case["argv"][1])
            assert list(p.coeffs) == checks.binomial_coeffs(raw)


def test_references_are_the_same_for_every_seed_and_the_rest_is_seeded():
    for workload, n_ref in (("pencil", 3), ("search", 3)):
        a = corpus.generate(workload, 1)
        b = corpus.generate(workload, 2)
        argv = lambda cases: [c["argv"] for c in cases]  # noqa: E731
        assert argv(a[0][-n_ref:]) == argv(a[1][-n_ref:]) == argv(b[0][-n_ref:])
        assert argv(a[0][:-n_ref]) != argv(b[0][:-n_ref])


def test_search_references_are_the_roadmap_baseline_forms():
    import random

    rng = random.Random(1)
    baseline = {d: corpus._random_raw(rng, d) for d in (4, 6, 8, 10, 12)}
    refs = corpus.reference_search_forms()
    assert refs[:2] == [baseline[8], baseline[10]]


def test_pencil_text_expands_to_its_raw_coefficients():
    from binforms.forms import parse_form

    case = corpus.generate("pencil", 2)[0][4]
    assert case["check"]["degree"] == 12
    p = parse_form(case["argv"][1])
    assert list(p.coeffs) == checks.binomial_coeffs(case["check"]["raw"])


# -- span arithmetic ----------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        [-1, "cli.main", 0.0, 10.0, None],
        [0, "engine.real_length", 1.0, 7.0, 100],
        [1, "quadforms.kernel_basis", 2.0, 3.0, None],
        [1, "engine.validate_sylvester", 4.0, 6.5, [3, "complex-roots"]],
        [3, "realroots.UniPoly.gcd", 4.5, 5.0, None],
        [0, "jsonio.report_to_json", 8.0, 9.0, None],
        [5, "jsonio.decomp_to_json", 8.2, 8.6, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.0, 0.5, 0.6, 0.4])
    totals = tracing.LayerTotals()
    totals.add_case(spans)
    m = totals.metrics()
    assert m["jsonio.total_s"] == pytest.approx(1.0)  # nested jsonio counted once
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["engine.validate_sylvester.reject.complex-roots"] == 1
    assert m["engine.validate_sylvester.us_per_reject"] == pytest.approx(2.5e6)
    assert m["engine.search.candidates"] == 1
    assert m["engine.search.gen_self_s"] == pytest.approx(2.5)
    assert m["realroots.gcd_per_validate"] == 1


def test_search_episode_counts_as_exhausted_at_the_budget():
    spans = [[-1, "engine.real_length", 0.0, 10.0, 2]]
    spans += [[0, "engine.validate_sylvester", 1.0 + i, 1.5 + i, [5, "complex-roots"]] for i in range(2)]
    spans += [[0, "engine.validate_sylvester", 4.0, 4.5, [6, "not-squarefree"]]]
    totals = tracing.LayerTotals()
    totals.add_case(spans)
    assert totals.metrics()["engine.search.exhausted"] == 1


# -- checker ------------------------------------------------------------------


def _decompose(text):
    rc, out = checks.run_cli(["decompose", text, "--output", "json"])
    return rc, json.loads(out)


def _case(kind, raw, **check):
    text = corpus.form_text(raw)
    return {
        "kind": kind,
        "argv": [kind, text],
        "check": {"degree": len(raw) - 1, "raw": [corpus.frac_text(c) for c in raw], **check},
    }


def test_checker_rejects_a_corrupted_exact_witness():
    case = _case("decompose", corpus.sextic_xy_raw(corpus.Fraction(1)))
    rc, out = _decompose(case["argv"][1])
    assert out["decomposition"]["certification"] == "exact"
    assert checks.check_decompose(case, rc, out) is None
    term = out["decomposition"]["representation"]["terms"][0]
    term["coeff"] = corpus.frac_text(corpus.Fraction(term["coeff"]) + 1)
    assert "re-expand" in checks.check_decompose(case, rc, out)


def test_checker_rejects_a_corrupted_certified_witness():
    case = _case("decompose", corpus.circle_conic_raw(corpus.Fraction(3, 2)))
    rc, out = _decompose(case["argv"][1])
    dec = out["decomposition"]
    assert dec["certification"] == "certified-intervals"
    assert checks.check_decompose(case, rc, out) is None
    term = dec["representation"]["terms"][0]
    coeff = term["coeff"]
    if isinstance(coeff, str):
        term["coeff"] = corpus.frac_text(corpus.Fraction(coeff) * 2)
    else:  # algebraic: scale the isolating interval and polynomial by 2
        iv = coeff["interval"]
        coeff["interval"] = {k: corpus.frac_text(2 * corpus.Fraction(v)) for k, v in iv.items()}
        n = len(coeff["min_poly"]) - 1
        coeff["min_poly"] = [str(int(c) * 2 ** (n - k)) for k, c in enumerate(coeff["min_poly"])]
    assert "enclose" in checks.check_decompose(case, rc, out)


def test_checker_catches_a_wrong_sextic_signature_set():
    t = corpus.Fraction(1, 2)
    case = _case("analyze", corpus.sextic_xy_raw(t), sextic_param="1/2")
    rc, out = checks.run_cli(["analyze", case["argv"][1], "--output", "json"])
    out = json.loads(out)
    assert checks.check_analyze(case, rc, out) is None
    out["report"]["signatures"] = [{"pos": 3, "neg": 3, "status": "proven"}]
    assert checks.check_analyze(case, rc, out) is not None


# -- tracer -------------------------------------------------------------------


def test_tracer_replaces_every_binding_and_restores_them():
    import sys

    import binforms.cli  # noqa: F401  (loads every traced module)
    from binforms import engine, quadforms

    originals = {
        "kernel_basis": quadforms.kernel_basis,
        "real_length": engine.real_length,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mods = [m for n, m in sys.modules.items() if n.startswith("binforms")]
        for mod in mods:
            for value in vars(mod).values():
                assert all(value is not orig for orig in originals.values())
        assert tracer.bindings["quadforms.kernel_basis"] >= 3  # quadforms, engine, fixtures, ...
        assert tracer.bindings["engine.real_length"] >= 3
    finally:
        tracer.uninstall()
    assert quadforms.kernel_basis is originals["kernel_basis"]
    assert engine.real_length is originals["real_length"]


def test_blind_tracer_fails_loudly():
    totals = tracing.LayerTotals()
    with pytest.raises(tracing.TracingBlindError):
        totals.check_expected("pencil")


# -- BENCHMARK.json agrees with the code ---------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads(BENCHMARK_JSON.read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == {n: (u, b) for n, (u, b, gated) in run.E2E_METRICS.items() if gated}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {n: (u, b) for n, (u, b, listed) in tracing.PER_LAYER_METRICS.items() if listed}
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


# -- runs ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run(workload, monkeypatch):
    monkeypatch.setitem(run.QUALITY_ROUNDS, workload, 1)
    bench = run.Run(workload, seed=5, seconds=0, trace=0)
    bench.measure()
    res = bench.result()
    assert res["correct"], res["detail"]["failures"]
    assert res["attempted"] == len(bench.records) >= len(bench.rounds[0])
    assert res["detail"]["rounds_run"] == 1
    assert set(res["metrics"]) == {n for n, (_u, _b, g) in run.E2E_METRICS.items() if g}
    assert len(bench.setups) == run.SETUP_REPEATS
    v = res["detail"]["values"]
    slow = v["host_probe_ms"] / 1e3 / run.PROBE_REFERENCE_S
    assert v["forms_per_s"] == pytest.approx(v["forms_per_s_wall"] * slow)
    assert v["case_p50_ms"] == pytest.approx(v["case_p50_ms_wall"] / slow)


def test_traced_smoke_run_records_every_expected_span(monkeypatch):
    monkeypatch.setitem(run.QUALITY_ROUNDS, "pencil", 1)
    bench = run.Run("pencil", seed=5, seconds=0, trace=1)
    bench.measure()
    res = bench.result()  # raises TracingBlindError if a layer went unseen
    assert res["correct"], res["detail"]["failures"]
    assert res["metrics"]["quadforms.det_poly_matrix.calls"]["value"] > 0


def test_deadline_kills_the_case_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(run, "CASE_DEADLINE_S", 0.001)
    monkeypatch.setitem(run.QUALITY_ROUNDS, "pencil", 1)
    bench = run.Run("pencil", seed=5, seconds=0, trace=0)
    bench.measure()
    res = bench.result()
    n = len(bench.rounds[0])
    assert res["attempted"] == n and res["failed"] == n
    assert all(r["rc"] == "deadline" for r in bench.records)
    assert len(bench.setups) == run.SETUP_REPEATS + n  # each respawn is set-up time
