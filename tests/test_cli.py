import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from binforms import cli, jsonio
from binforms.cli import main

REPO = Path(__file__).resolve().parents[1]
SCHEMA_PATH = REPO / "schemas" / "cli-output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(payload, section):
    jsonschema.validate(payload, {**SCHEMA, "oneOf": [{"$ref": f"#/$defs/{section}"}]})


class TestAnalyze:
    def test_sextic_pair(self, capsys):
        code, out, _ = run(capsys, "analyze", "6*x^5*y + 6*x*y^5")
        assert code == 0
        assert "(2,3) proven" in out and "(3,2) proven" in out
        assert "achieved 5" in out

    def test_diagonal_quartic(self, capsys):
        code, out, _ = run(capsys, "analyze", "x^4 + y^4")
        assert code == 0
        assert "(2,0) proven" in out and "achieved 2" in out

    def test_split_quartic(self, capsys):
        code, out, _ = run(capsys, "analyze", "x^2*y^2")
        assert code == 0
        assert "(2,2) proven" in out and "splits: yes" in out

    def test_parse_error_exit1(self, capsys):
        code, _, err = run(capsys, "analyze", "x^2 + ")
        assert code == 1 and "error" in err

    def test_odd_degree_exit2(self, capsys):
        code, _, err = run(capsys, "analyze", "x^3")
        assert code == 2

    def test_zero_form_exit2(self, capsys):
        code, _, err = run(capsys, "analyze", "x^2 - x^2")
        assert code == 2

    @pytest.mark.parametrize("form", ["(x+y)^5000", "x^60 + 3*x^31*y^29 - y^60"])
    def test_hostile_input_exit2_fast(self, capsys, form):
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", form, "--output", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.startswith("invalid input:")

    def test_json_schema_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "analyze", "6*x^5*y + 6*x*y^5", "--output", "json")
        assert code == 0
        payload = json.loads(out1)
        validate(payload, "analyze")
        _, out2, _ = run(capsys, "analyze", "6*x^5*y + 6*x*y^5", "--output", "json")
        assert out1 == out2


class TestDecompose:
    def test_split_family(self, capsys):
        code, out, _ = run(capsys, "decompose", "6*x^5*y + 20*x^3*y^3 + 6*x*y^5")
        assert code == 0
        assert "badge: (1,1)" in out
        assert "coeff 1/2" in out and "coeff -1/2" in out

    def test_monomial(self, capsys):
        code, out, _ = run(capsys, "decompose", "24*y^4")
        assert code == 0
        assert "badge: (1,0)" in out

    def test_algebraic_intervals(self, capsys):
        code, out, _ = run(capsys, "decompose", "6*x^5*y + 40*x^3*y^3 + 6*x*y^5")
        assert code == 0
        assert "certified-intervals" in out and "badge: (2,2)" in out

    def test_json_valid(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "6*x^5*y + 40*x^3*y^3 + 6*x*y^5", "-o", "json"
        )
        assert code == 0
        validate(json.loads(out), "decompose")

    def test_precision_flag_rejected(self, capsys):
        # no refinement loop read --precision, so the flag is gone
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "x^4", "--precision", "3"])
        assert exc.value.code == 2


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "x^4 + y^4", "--filter", "x"],
            ["verify", "-", "x^4", "--seed", "1"],
            ["verify", "-", "x^4", "--search-budget", "5"],
            ["decompose", "x^4", "--denom-bound", "5"],
            ["fixtures", "--denom-bound", "5"],
        ],
        ids=["analyze-filter", "verify-seed", "verify-budget", "denom-bound", "fixtures-denom-bound"],
    )
    def test_flag_a_subcommand_does_not_read_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_jobs_accepted_everywhere(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(REP_JSON))
        code, _, _ = run(capsys, "verify", str(path), "24*y^4", "--jobs", "1")
        assert code == 0
        code, _, _ = run(capsys, "fixtures", "--filter", "thm-4.4", "--jobs", "1")
        assert code == 0


class TestSettingsFromArgvOnly:
    def test_main_calls_share_one_parser_tree(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for argv in (["analyze", "x^4 + y^4"], ["decompose", "x^4"], ["analyze", "x^2*y^2"]):
            assert run(capsys, *argv)[0] == 0
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert built[0] is parser
        assert len(built) == 1 + len(sub.choices)

    def test_binforms_env_vars_ignored(self):
        base = {k: v for k, v in os.environ.items() if not k.startswith("BINFORMS_")}
        base["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), *filter(None, [base.get("PYTHONPATH")])]
        )
        argv = [sys.executable, "-m", "binforms", "analyze", "x^4 + y^4"]
        plain = subprocess.run(argv, env=base, capture_output=True, check=True)
        env = {**base, "BINFORMS_OUTPUT": "json", "BINFORMS_SEARCH_BUDGET": "1"}
        with_env = subprocess.run(argv, env=env, capture_output=True, check=True)
        assert plain.stdout.startswith(b"form: x^4 + y^4\n")
        assert with_env.stdout == plain.stdout


class TestClosedStdout:
    def test_broken_pipe_exits_quietly(self):
        """stdout is a pipe whose reader is already gone, as in `binforms
        fixtures -o json | head -1` once head has exited."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "binforms", "fixtures", "-o", "json"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


REP_JSON = {
    "degree": 4,
    "terms": [
        {"coeff": "1", "form": ["1", "2"]},
        {"coeff": "-4", "form": ["1", "1"]},
        {"coeff": "6", "form": ["1", "0"]},
        {"coeff": "-4", "form": ["1", "-1"]},
        {"coeff": "1", "form": ["1", "-2"]},
    ],
}

SEXTIC_REP_JSON = {
    "degree": 6,
    "terms": [
        {"coeff": "1296", "form": ["1", "1"]},
        {"coeff": "-567", "form": ["1", "2"]},
        {"coeff": "112", "form": ["1", "3"]},
        {"coeff": "-1", "form": ["1", "-6"]},
        {"coeff": "-840", "form": ["1", "0"]},
    ],
}


class TestVerify:
    def test_quartic_identity(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(REP_JSON))
        code, out, _ = run(capsys, "verify", str(path), "24*y^4")
        assert code == 0
        assert "tau=4 sigma=4" in out

    def test_sextic_identity(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(SEXTIC_REP_JSON))
        code, out, _ = run(
            capsys, "verify", str(path), "3024*x^5*y + 108864*x*y^5"
        )
        assert code == 0

    def test_corrupted_coefficient_fails(self, capsys, tmp_path):
        bad = json.loads(json.dumps(SEXTIC_REP_JSON))
        bad["terms"][2]["coeff"] = "113"
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(
            capsys, "verify", str(path), "3024*x^5*y + 108864*x*y^5"
        )
        assert code == 1
        assert "first differing" in out

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(REP_JSON))
        code, out, _ = run(capsys, "verify", str(path), "24*y^4", "-o", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "verify")
        assert payload["certificate"] == {"tau": 4, "sigma": 4, "ok": True}

    @pytest.mark.parametrize(
        "payload",
        [
            {"degree": 4, "terms": [{"coeff": "1", "form": ["0", "0"]}]},
            {"degree": -1, "terms": []},
            [1],
            {"degree": jsonio.MAX_REP_DEGREE + 1, "terms": []},
        ],
        ids=["zero-point", "negative-degree", "top-level-list", "degree-above-limit"],
    )
    def test_malformed_representation_exit1(self, capsys, tmp_path, payload):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(path), "x^4")
        assert code == 1
        assert out == "" and err.startswith("error: ")
        assert "Traceback" not in err

    def test_degree_limit_is_checked_before_allocation(self):
        assert jsonio.rep_from_json({"degree": jsonio.MAX_REP_DEGREE, "terms": []}).degree == (
            jsonio.MAX_REP_DEGREE
        )
        with pytest.raises(ValueError, match="exceeds the limit"):
            jsonio.rep_from_json({"degree": 10**8, "terms": []})


class TestSweep:
    def test_family_matches_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "6*x^5*y + 20*t*x^3*y^3 + 6*x*y^5",
            "--grid=-1,-3/10,1/2,1,2",
            "--limit",
            "0",
        )
        assert code == 0
        assert "t=-1: {(3,3)}" in out
        assert "t=-3/10: {(2,3), (3,2)}" in out
        assert "t=1: {(1,1)}" in out
        assert "limit t=0: {(2,3), (3,2)}" in out

    def test_quartic_jump_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "t*x^4 + 6*x^2*y^2 + t*y^4",
            "--grid",
            "1/2,1/4,1/8",
            "--limit",
            "0",
        )
        assert code == 0
        assert out.count("jump=up") == 3

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "t*x^4 + 6*x^2*y^2 + t*y^4",
            "--grid",
            "1/2,1/4",
            "--limit",
            "0",
            "-o",
            "json",
        )
        assert code == 0
        validate(json.loads(out), "sweep")

    @pytest.mark.parametrize(
        "family, grid, limit, want",
        [
            ("6*x^5*y + 20*t*x^3*y^3 + 6*x*y^5", "1/2,1,2", "0", 0),
            ("t*x^2 + t*y^2", "0,1", "0", 1),  # a row error and a limit error
        ],
        ids=["sextic", "errors"],
    )
    def test_parallel_rows_match_serial(self, capsys, family, grid, limit, want):
        argv = ["sweep", "--family", family, "--grid", grid, "--limit", limit, "-o", "json"]
        code1, serial, _ = run(capsys, *argv)
        code2, parallel, _ = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == want
        assert serial == parallel

    def test_jobs_capped_at_report_count(self, capsys, monkeypatch):
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        family = ["sweep", "--family", "t*x^4 + 6*x^2*y^2 + t*y^4", "-o", "json"]
        code, capped, _ = run(capsys, *family, "--grid", "1,2", "--jobs", "64")
        assert code == 0 and pools == [2]
        code, _, _ = run(capsys, *family, "--grid", "1,2", "--limit", "0", "--jobs", "64")
        assert code == 0 and pools == [2, 3]
        code, _, _ = run(capsys, *family, "--grid", "1", "--jobs", "64")
        assert code == 0 and pools == [2, 3]  # one report: no pool
        assert run(capsys, *family, "--grid", "1,2")[1] == capped

    def test_row_error_embedded(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "t*x^4 + 6*x^2*y^2 + y^3*y^1",
            "--grid",
            "0,1",
        )
        # family itself parses (homogeneous); all rows run
        assert code in (0, 3)


class TestFixtures:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 25

    def test_filter(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--filter", "thm-4.4")
        assert code == 0
        body = [l for l in out.splitlines() if l.startswith("PASS")]
        assert 0 < len(body) < 30

    def test_json_details_have_no_python_reprs(self, capsys):
        """Rationals in details are num/den text, as everywhere in the JSON."""
        code, out, _ = run(capsys, "fixtures", "-o", "json")
        assert code == 0
        assert "Fraction(" not in out
        details = {f["id"]: f["detail"] for f in json.loads(out)["fixtures"]}
        assert details["parse-monomial"] == "coeffs (0, 0, 0, 0, 24)"

    def test_bad_filter_exit1(self, capsys):
        code, _, err = run(capsys, "fixtures", "--filter", "no-such-fixture")
        assert code == 1

    def test_corrupted_fixture_exit1(self, capsys, monkeypatch):
        import binforms.fixtures as fx

        broken = fx.Fixture(
            fx.FIXTURES[0].id,
            fx.FIXTURES[0].anchor,
            fx.FIXTURES[0].kind,
            lambda cfg: (False, "deliberately corrupted"),
        )
        monkeypatch.setattr(fx, "FIXTURES", [broken] + fx.FIXTURES[1:])
        code, out, _ = run(capsys, "fixtures")
        assert code == 1
        assert "FAIL" in out


class TestInconclusive:
    def test_negative_budget_is_a_usage_error(self, capsys):
        # decompose reaches the pinned kernel search of this form, where the
        # budget is spent; analyze of it never does
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "x^5*y", "--search-budget", "-1"])
        assert exc.value.code == 2
        assert "--search-budget" in capsys.readouterr().err

    def test_budget_zero_exit3(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "6*x^5*y + 6*x*y^5", "--search-budget", "0"
        )
        assert code == 3
        assert "observed" in out or "no" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "fixtures", "-o", "json", "--filter", "eq-1.2")
        assert code == 0
        validate(json.loads(out), "fixtures")
