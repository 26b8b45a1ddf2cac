"""Benchmark worker: one long-lived, single-threaded process that imports
binforms from the checkout's `src/`, generates the corpus and runs cases
through `binforms.cli.main(argv)` in-process with stdout captured.

Protocol, one JSON object per line.  The worker first writes
`{"ready": ..., "corpus_sha256": ...}`.  It then reads requests
`{"op": "run", "round": r, "index": k}` (or, for a case derived from an
earlier output, `{"op": "run", "argv": [...], "stdin": text}`) and answers
each with `{"rc", "out", "err", "wall_s"}`; with `--trace 1` it runs the case
once untraced and once traced and adds `traced_wall_s`, `traced_same` and
`spans`.  `{"op": "probe"}` times `host_probe`, `{"op": "stats"}` returns
the peak RSS and `{"op": "exit"}` ends it.

Run by bench/run.py; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _run_case(cli, argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed case, not a dead worker
        rc = "crash"
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - start
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue(), wall


def _peak_rss_mb() -> float:
    """Peak resident set of this process since exec.  getrusage's ru_maxrss
    also counts the parent's image forked before exec, so read VmHWM."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def host_probe() -> float:
    """Seconds taken by a fixed stdlib workload of rational and big-integer
    arithmetic, the kind of work binforms does; the median of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        n = 20
        rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
        for c in range(n):
            for r in range(c + 1, n):
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        poly, acc = [3, -7, 11, 5, -2], [1]
        for _ in range(40):
            acc = [
                sum(acc[i] * poly[k - i] for i in range(max(0, k - 4), min(k, len(acc) - 1) + 1))
                for k in range(len(acc) + 4)
            ]
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def _run_traced(tracer, cli, argv, stdin_text):
    tracer.install()
    try:
        origin = time.perf_counter()
        rc, out, _err, wall = _run_case(cli, argv, stdin_text)
        return rc, out, wall, tracer.take(origin)
    finally:
        tracer.uninstall()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC_DIR / "binforms" / "__init__.py").is_file():
        print(f"worker: no binforms package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import binforms.cli as cli
    import corpus

    if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"worker: imported binforms from {cli.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    rounds = corpus.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    proto = sys.stdout

    def send(obj):
        proto.write(json.dumps(obj, separators=(",", ":")) + "\n")
        proto.flush()

    send({"ready": True, "corpus_sha256": corpus.digest(rounds)})
    served = 0
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "exit":
            break
        if op == "probe":
            send({"probe_s": host_probe()})
            continue
        if op == "stats":
            send({"peak_rss_mb": _peak_rss_mb()})
            continue
        if "argv" in req:  # a case derived from an earlier case's output
            argv, stdin_text = req["argv"], req.get("stdin")
        else:
            case = rounds[req["round"]][req["index"]]
            argv, stdin_text = case["argv"], case.get("stdin")
        # Traced runs alternate which of the two executions goes first, so
        # that warm-up effects cancel out of the overhead ratio.
        traced_first = tracer is not None and served % 2 == 1
        if traced_first:
            traced = _run_traced(tracer, cli, argv, stdin_text)
        rc, out, err, wall = _run_case(cli, argv, stdin_text)
        reply = {"rc": rc, "out": out, "err": err[-4000:], "wall_s": wall}
        if tracer is not None:
            if not traced_first:
                traced = _run_traced(tracer, cli, argv, stdin_text)
            t_rc, t_out, t_wall, spans = traced
            reply["spans"] = spans
            reply["traced_wall_s"] = t_wall
            reply["traced_same"] = t_rc == rc and t_out == out
            reply["bindings"] = tracer.bindings
        served += 1
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
