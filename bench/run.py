"""Benchmark of the binforms CLI on seeded workloads.

    python3 bench/run.py --workload paper|pencil|search|all --seed N \\
        --seconds S --trace 0|1 [--out FILE]

Each workload is a seeded corpus of CLI invocations (bench/corpus.py).  A
long-lived single-threaded worker process (bench/worker.py) imports binforms
from `src/` of this checkout and runs the cases through
`binforms.cli.main(argv)` in-process.  The run repeats whole rounds of the
corpus until S seconds of case time have been measured, and always runs at
least the workload's first QUALITY_ROUNDS rounds, over which the output
quality metrics and the output digest are computed, so that those repeat
exactly for a seed.  A traced run runs exactly those rounds.  Every output is checked afterwards, outside the timed
region (bench/checks.py).

A case that runs past its deadline is killed together with its worker and
counted as failed with its elapsed time; a fresh worker takes over and its
start-up time is counted as set-up, not as case time.

With --trace 0 the end-to-end metrics are measured; case times are scaled
by a host-speed probe taken at the start of every round (see
PROBE_REFERENCE_S), and the unscaled ones are printed too.  With --trace 1 every
case runs once untraced and once under the span tracer (bench/tracing.py),
which gives the per-layer metrics and the tracing overhead.

Prints a table, then as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Details (every case's argv, exit code, time, check result; spans of a traced
run) go to .bench_build/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"

sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
CASE_DEADLINE_S = 60.0
# Hard cap on one workload's case loop, deadlines included, so a run always
# ends well inside three minutes even if every case hangs.
LOOP_CAP_S = 110.0
QUALITY_ROUNDS = {"paper": 2, "pencil": 3, "search": 3}

# The host's speed drifts: the same cases ran up to 1.5 times slower from
# one run to the next.  Each round starts with a fixed stdlib workload of
# rational and big-integer arithmetic (worker.host_probe); case times and
# rates are scaled by the run's median probe time to a host on which that
# probe takes PROBE_REFERENCE_S.  The *_wall metrics are unscaled.  Set-up
# time is not scaled: it did not follow the probe (scaling widened its
# spread over ten runs from 0.06 to 0.21).
PROBE_REFERENCE_S = 0.05

# name -> (unit, better, gated).  Gated metrics are the end-to-end metrics of
# BENCHMARK.json and the only ones in the result line of a --trace 0 run;
# the rest are printed in the table (see bench/results/NOTES.md for why).
E2E_METRICS = {
    "forms_per_s": ("cases/s", "higher", True),
    "case_p50_ms": ("ms", "lower", True),
    "case_p90_ms": ("ms", "lower", False),
    "failed_ratio": ("ratio", "lower", False),
    "conclusive_ratio": ("ratio", "higher", False),
    "length_gap_mean": ("terms", "lower", False),
    "setup_s": ("s", "lower", True),
    "peak_rss_mb": ("MiB", "lower", True),
    "forms_per_s_wall": ("cases/s", "higher", False),
    "case_p50_ms_wall": ("ms", "lower", False),
    "host_probe_ms": ("ms", "lower", False),
}
# case_p90_ms is only reported with at least this many cases in the run, so
# that at least ten samples lie beyond the 90th percentile.
P90_MIN_CASES = 100


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class CaseTimeout(Exception):
    pass


def _worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BINFORMS_")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One benchmark worker process; the constructor times its set-up."""

    def __init__(self, workload: str, seed: int, trace: int, log_path: Path):
        cmd = [
            sys.executable,
            str(BENCH_DIR / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
        ]
        self._buf = bytearray()
        start = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                cwd=ROOT,
                env=_worker_env(),
            )
        try:
            ready = self._read(60.0)
        except (CaseTimeout, BenchError):
            self.kill()
            raise BenchError(f"worker did not start; see {log_path}")
        self.setup_s = time.perf_counter() - start
        self.corpus_sha256 = ready["corpus_sha256"]

    def _read(self, timeout: float) -> Dict:
        fd = self.proc.stdout.fileno()
        end = time.perf_counter() + timeout
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[:nl])
                del self._buf[: nl + 1]
                return json.loads(line)
            left = end - time.perf_counter()
            if left <= 0:
                raise CaseTimeout()
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise BenchError("worker exited unexpectedly")
                self._buf += chunk

    def request(self, req: Dict, timeout: float) -> Dict:
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError("worker exited unexpectedly")
        return self._read(timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b'{"op": "exit"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def _exact_decompositions(out: Dict) -> List[Dict]:
    found = []
    for dec in (out.get("decomposition"), out.get("report", {}).get("witness")):
        if dec and dec.get("certification") == "exact":
            found.append(dec["representation"])
    return found


class Run:
    """One workload measured once: the case loop, then the checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.quality_rounds = QUALITY_ROUNDS[workload]
        self.rounds = corpus.generate(workload, seed)
        self.corpus_sha256 = corpus.digest(self.rounds)
        self.setups: List[float] = []
        self.records: List[Dict] = []
        self.busy = 0.0
        self.rounds_run = 0
        self.worker: Optional[Worker] = None
        self.log_path = OUT_DIR / "worker.log"
        self.spans_path = OUT_DIR / "trace" / f"{workload}.jsonl"
        self.spans_file = None
        self.layers = tracing.LayerTotals() if trace else None
        self.bindings: Dict[str, int] = {}
        self.peak_rss_mb = 0.0
        self.probes: List[float] = []
        self._cases: Dict[str, Dict] = {}

    # -- workers -----------------------------------------------------------

    def _spawn(self) -> None:
        worker = Worker(self.workload, self.seed, self.trace, self.log_path)
        self.setups.append(worker.setup_s)
        if worker.corpus_sha256 != self.corpus_sha256:
            worker.kill()
            raise BenchError("the worker generated a different corpus")
        self.worker = worker

    def _retire(self) -> None:
        try:
            stats = self.worker.request({"op": "stats"}, 30.0)
            self.peak_rss_mb = max(self.peak_rss_mb, stats["peak_rss_mb"])
        except (CaseTimeout, BenchError):
            pass
        self.worker.close()
        self.worker = None

    def _probe(self) -> float:
        try:
            return self.worker.request({"op": "probe"}, 30.0)["probe_s"]
        except CaseTimeout:
            raise BenchError("the host probe did not finish in 30 s")

    # -- the case loop -----------------------------------------------------

    def _dispatch(self, case: Dict, req: Dict, round_no: int, loop_left: float) -> Dict:
        timeout = max(0.0, min(CASE_DEADLINE_S, loop_left))
        start = time.perf_counter()
        try:
            reply = self.worker.request({"op": "run", **req}, timeout)
            rtt = time.perf_counter() - start
        except (CaseTimeout, BenchError) as exc:
            rtt = time.perf_counter() - start
            self.worker.kill()
            self._spawn()
            reply = {"rc": "deadline" if isinstance(exc, CaseTimeout) else "died",
                     "out": "", "err": "", "wall_s": rtt}
        self.busy += rtt
        rec = {
            "id": case["id"],
            "round": round_no,
            "kind": case["kind"],
            "argv": case["argv"],
            "rc": reply["rc"],
            "wall_s": reply["wall_s"],
            "out": reply["out"],
            "err": reply.get("err", ""),
        }
        if "stdin" in case:
            rec["stdin_sha256"] = hashlib.sha256(case["stdin"].encode()).hexdigest()
        if self.trace and "spans" in reply:
            rec["traced_same"] = reply["traced_same"]
            self.layers.traced_wall += reply["traced_wall_s"]
            self.layers.untraced_wall += reply["wall_s"]
            self.layers.add_case(reply["spans"])
            self.bindings = reply["bindings"]
            self.spans_file.write(json.dumps({"case": case["id"], "spans": reply["spans"]}) + "\n")
        self.records.append(rec)
        self._cases[rec["id"]] = case
        return rec

    def measure(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        if self.trace:
            self.spans_path.parent.mkdir(exist_ok=True)
            self.spans_file = open(self.spans_path, "w")
        try:
            for _ in range(SETUP_REPEATS):
                if self.worker is not None:
                    self.worker.close()
                self._spawn()
            self._loop()
            self._retire()
        finally:
            if self.worker is not None:
                self.worker.kill()
            if self.spans_file is not None:
                self.spans_file.close()

    def _loop(self) -> None:
        start = time.perf_counter()
        while True:
            r = self.rounds_run
            self.probes.append(self._probe())
            for k, case in enumerate(self.rounds[r % len(self.rounds)]):
                spent = time.perf_counter() - start
                if spent >= LOOP_CAP_S:
                    return
                rec = self._dispatch(case, {"round": r % len(self.rounds), "index": k}, r, LOOP_CAP_S - spent)
                if self.workload != "paper" or rec["rc"] not in (0, 3):
                    continue
                # Verify round-trip of every exact decomposition the paper
                # workload produces.
                try:
                    out = json.loads(rec["out"])
                except ValueError:
                    continue
                for n, rep in enumerate(_exact_decompositions(out)):
                    derived = corpus.verify_case(rep, case["argv"][1])
                    derived["id"] = f"{case['id']}/verify{n}"
                    req = {"argv": derived["argv"], "stdin": derived["stdin"]}
                    self._dispatch(derived, req, r, LOOP_CAP_S - (time.perf_counter() - start))
            self.rounds_run += 1
            # A traced run covers exactly the quality rounds, so that its
            # counts repeat for a seed.
            if self.rounds_run >= self.quality_rounds and (self.trace or self.busy >= self.seconds):
                return

    # -- checks and metrics ------------------------------------------------

    def check(self) -> None:
        # A verdict depends only on the checker, the case and the output, so
        # verdicts are kept across runs: the reference cases repeat.
        cache = OUT_DIR / "verdicts.json"
        try:
            verdicts: Dict[str, Optional[str]] = json.loads(cache.read_text())
        except (OSError, ValueError):
            verdicts = {}
        checker = hashlib.sha256(Path(checks.__file__).read_bytes()).hexdigest()
        for rec in self.records:
            if rec["rc"] in ("deadline", "died", "crash"):
                rec["problem"] = f"case {rec['rc']}"
                continue
            if self.trace and not rec.get("traced_same", True):
                rec["problem"] = "traced run gave a different output"
                continue
            case = self._cases[rec["id"]]
            key = hashlib.sha256(
                json.dumps([checker, case["argv"], case.get("stdin"), rec["rc"], rec["out"]]).encode()
            ).hexdigest()
            if key not in verdicts:
                try:
                    verdicts[key] = checks.check_case(case, rec["rc"], rec["out"])
                except Exception as exc:  # a checker crash fails the case, not the run
                    verdicts[key] = f"checker raised {type(exc).__name__}: {exc}"
            rec["problem"] = verdicts[key]
        cache.write_text(json.dumps(verdicts))

    def quality_records(self) -> List[Dict]:
        return [r for r in self.records if r["round"] < self.quality_rounds]

    def outputs_sha256(self) -> str:
        h = hashlib.sha256()
        for rec in self.quality_records():
            h.update(f"{rec['id']}\t{rec['rc']}\n{rec['out']}\n".encode())
        return h.hexdigest()

    def e2e(self) -> Dict[str, float]:
        recs = self.records
        failed = sum(1 for r in recs if r["problem"])
        times = [r["wall_s"] for r in recs]
        quality = self.quality_records()
        gaps = []
        for rec in quality:
            if rec["kind"] not in ("analyze", "decompose") or rec["problem"]:
                continue
            out = json.loads(rec["out"])
            length = out["length"] if "length" in out else out["report"]["length"]
            gaps.append(length["upper"] - length["lower_excluded"] - 1)
        # How much slower than the reference host this run's host was.
        slow = statistics.median(self.probes) / PROBE_REFERENCE_S
        fps = (len(recs) - failed) / self.busy
        p50 = 1e3 * statistics.median(times)
        setup = statistics.median(self.setups)
        values = {
            "forms_per_s": fps * slow,
            "case_p50_ms": p50 / slow,
            "failed_ratio": failed / len(recs),
            "conclusive_ratio": sum(1 for r in quality if r["rc"] == 0) / len(quality),
            "length_gap_mean": statistics.fmean(gaps) if gaps else 0.0,
            "setup_s": setup,
            "peak_rss_mb": self.peak_rss_mb,
            "forms_per_s_wall": fps,
            "case_p50_ms_wall": p50,
            "host_probe_ms": 1e3 * statistics.median(self.probes),
        }
        if len(recs) >= P90_MIN_CASES:
            values["case_p90_ms"] = 1e3 * statistics.quantiles(times, n=10)[-1] / slow
        return values

    def result(self) -> Dict:
        start = time.perf_counter()
        self.check()
        check_s = time.perf_counter() - start
        failed = [r for r in self.records if r["problem"]]
        if self.trace:
            self.layers.check_expected(self.workload)
            values = self.layers.metrics()
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, (unit, _better, listed) in tracing.PER_LAYER_METRICS.items()
                if listed
            }
        else:
            values = self.e2e()
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, (unit, _better, gated) in E2E_METRICS.items()
                if gated
            }
        detail = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "rounds_run": self.rounds_run,
            "quality_rounds": self.quality_rounds,
            "corpus_sha256": self.corpus_sha256,
            "outputs_sha256": self.outputs_sha256(),
            "setups_s": self.setups,
            "busy_s": self.busy,
            "check_s": check_s,
            "values": values,
            "failures": [{k: r[k] for k in ("id", "rc", "problem", "err")} for r in failed],
            "cases": [
                {k: r[k] for k in ("id", "round", "argv", "rc", "wall_s", "problem", "stdin_sha256") if k in r}
                for r in self.records
            ],
        }
        if self.trace:
            detail["self_time_shares"] = self.layers.self_shares()
            detail["layer_shares"] = self.layers.layer_shares()
            detail["bindings"] = self.bindings
        return {
            "correct": not failed,
            "attempted": len(self.records),
            "failed": len(failed),
            "metrics": metrics,
            "detail": detail,
        }


def _print_table(res: Dict) -> None:
    d = res["detail"]
    print(
        f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
        f"rounds {d['rounds_run']}  cases {res['attempted']}  failed {res['failed']}  "
        f"busy {d['busy_s']:.2f} s  checks {d['check_s']:.2f} s"
    )
    if d["trace"]:
        for name, (unit, _b, listed) in tracing.PER_LAYER_METRICS.items():
            mark = "" if listed else "  (reported, not listed)"
            print(f"  {name:52s} {d['values'][name]:14.6g} {unit}{mark}")
        print("  layer time as a share of traced wall time (layers nest):")
        for name, share in d["layer_shares"].items():
            print(f"    {name:50s} {100 * share:6.2f} %")
        print("  largest self-time shares:")
        for name, share in d["self_time_shares"]:
            print(f"    {name:50s} {100 * share:6.2f} %")
    else:
        for name, (unit, _b, gated) in E2E_METRICS.items():
            if name in d["values"]:
                mark = "" if gated else "  (reported, not gated)"
                print(f"  {name:20s} {d['values'][name]:14.6g} {unit}{mark}")
            else:
                print(f"  {name:20s} {'n/a':>14s} {unit}  (fewer than {P90_MIN_CASES} cases)")
    print(f"  corpus_sha256  {d['corpus_sha256']}")
    print(f"  outputs_sha256 {d['outputs_sha256']}  (first {d['quality_rounds']} rounds)")
    for f in d["failures"][:10]:
        print(f"  FAILED {f['id']}: {f['problem']}")


def _summary(res: Dict) -> Dict:
    """A result without its per-case lists, for committing."""
    d = res["detail"]
    keep = ("seed", "seconds", "trace", "rounds_run", "quality_rounds", "corpus_sha256",
            "outputs_sha256", "busy_s", "setups_s", "values", "layer_shares", "self_time_shares")
    out = {k: res[k] for k in ("correct", "attempted", "failed")}
    out.update({k: d[k] for k in keep if k in d})
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper", "pencil", "search", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write a summary of the results (no per-case lists) here")
    args = ap.parse_args(argv)

    if not (SRC_DIR / "binforms" / "__init__.py").is_file():
        print(f"error: no binforms package under {SRC_DIR}", file=sys.stderr)
        return 2
    # On SIGTERM unwind normally, so that the worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            run = Run(w, args.seed, args.seconds, args.trace)
            run.measure()
            results[w] = run.result()
            _print_table(results[w])
            path = OUT_DIR / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(results[w], indent=1, sort_keys=True))
    except (BenchError, tracing.TracingBlindError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        summary = {w: _summary(r) for w, r in results.items()}
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    if len(results) == 1:
        final = dict(next(iter(results.values())))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    final.pop("detail", None)
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
