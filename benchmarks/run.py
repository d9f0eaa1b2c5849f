"""prymrep benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload {catalogue,roundtrip,oracle,cli}
                              --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's src/, never from an installed copy.  Each workload runs in its
own fresh interpreter (benchmarks/worker.py), driven in a closed loop by one
caller thread.

--trace 0 reports the end-to-end metrics.  One worker runs as many whole
rounds as fill S seconds at the workload's reference round time (ROUND_S
below), timing each case alone and probing the machine's speed between
cases; every case time is scaled to the reference speed (common.SpeedTrack),
because the shared machines this runs on change speed by up to 1.8x for
minutes at a time.  From those times: cases_per_s (cases over the sum of
their times), case_p50_ms, case_tail_ms (the highest percentile with at
least 10 cases beyond it).  peak_rss_mb is the worker's peak resident set,
and setup_s the median over SETUP_SAMPLES fresh interpreters of the time
from process start to ready (import plus one warm-up case per cell, less the
generation of the warm-up inputs), scaled the same way.  The unscaled
figures are printed too.

--trace 1 reports the per-layer metrics from the workload's fixed traced
rounds (see benchmarks/tracer.py).  One fresh worker runs them untraced and
another runs them traced, so neither pass finds caches the other filled;
bench.trace_overhead_frac compares the two.

The last stdout line is the JSON result; the lines before it record the
environment, the input size, the tail percentile and the output digest.
Exit status is 0 when every case passed its exact checks, 1 when any case
failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import PROBE_REF_S, ROOT, environment, probe_median, require_checkout  # noqa: E402
from tracer import unit  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
# Wall seconds of one round in one worker on the reference machine (a shared
# 2-vCPU Xeon VM), inputs and checks included; sets the round count.
ROUND_S = {"catalogue": 7.0, "roundtrip": 1.9, "oracle": 3.5, "cli": 0.78}
WORKLOADS = tuple(ROUND_S)
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

UNITS = {
    "cases_per_s": "1/s", "case_p50_ms": "ms", "case_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process whose stdout lines are read with arrival times."""

    def __init__(self, workload, seed, mode, extra=()):
        cmd = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--mode", mode, *extra]
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     text=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put((perf_counter(), line.rstrip("\n")))
        self.lines.put((perf_counter(), None))

    def expect(self, prefix, deadline):
        """Wait for the line starting with `prefix`; returns (time, rest)."""
        while True:
            try:
                t, line = self.lines.get(timeout=max(deadline - perf_counter(), 0.01))
            except queue.Empty:
                raise WorkerError(f"worker gave no {prefix!r} line in time") from None
            if line is None:
                raise WorkerError(f"worker exited before its {prefix!r} line")
            if line.startswith(prefix):
                return t, line[len(prefix):].strip()
            print(line, file=sys.stderr)

    def close(self, deadline):
        try:
            code = self.proc.wait(timeout=max(deadline - perf_counter(), 0.01))
        except subprocess.TimeoutExpired:
            code = None
        if code is None:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()
        if code != 0:
            raise WorkerError(f"worker exited with status {code}")


def run_worker(workload, seed, mode, deadline, extra=()):
    """Start a worker; returns (set-up seconds at the reference speed, result
    dict or None for mode "setup")."""
    before = probe_median()
    w = Worker(workload, seed, mode, extra)
    try:
        ready, gen_s = w.expect("READY", deadline)
        after = probe_median()
        result = None
        if mode != "setup":
            _, payload = w.expect("RESULT", deadline)
            result = json.loads(payload)
        w.close(deadline)
    except BaseException:
        if w.proc.poll() is None:
            w.proc.kill()
            w.proc.wait()
        w.reader.join()
        raise
    setup = ready - w.started - float(gen_s)
    return setup * 2 * PROBE_REF_S / (before + after), result


def tail(times):
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, samples beyond)."""
    s = sorted(times)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def end_to_end(workload, seed, seconds, deadline, extra):
    rounds = max(1, round(seconds / ROUND_S[workload]))
    setup, res = run_worker(workload, seed, "run", deadline,
                            ["--rounds", str(rounds), *extra])
    setups = [setup] + [run_worker(workload, seed, "setup", deadline)[0]
                        for _ in range(SETUP_SAMPLES - 1)]
    times, raw = res["times"], res["raw_times"]
    value, pct, beyond = tail(times)
    print(f"case_tail_ms: p{pct:.2f} of {len(times)} cases ({rounds} rounds), "
          f"{beyond} beyond")
    print("cases by kind: " + json.dumps(res["kinds"]))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    print(f"as measured, before scaling to the reference speed: "
          f"cases_per_s {len(raw) / sum(raw):.4f}, "
          f"case_p50_ms {1e3 * statistics.median(raw):.4f}, "
          f"case_tail_ms {1e3 * tail(raw)[0]:.4f}")
    res["metrics"] = {
        "cases_per_s": len(times) / sum(times),
        "case_p50_ms": 1e3 * statistics.median(times),
        "case_tail_ms": 1e3 * value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res


def per_layer(workload, seed, deadline, extra):
    """The traced rounds in a fresh untraced worker, then in a fresh traced
    one; returns the traced result with the untraced run's checks added."""
    _, plain = run_worker(workload, seed, "plain", deadline, extra)
    _, res = run_worker(workload, seed, "trace", deadline, extra)
    # cases per second at the reference speed fall from n/plain to n/traced
    res["metrics"]["bench.trace_overhead_frac"] = 1 - plain["scaled_s"] / res["scaled_s"]
    res["metrics"]["bench.traced_case_s"] = res["case_s"]
    res["attempted"] += plain["attempted"] + 1
    res["failures"] += plain["failures"]
    res["failed"] += plain["failed"]
    if plain["outputs"] != res["outputs"]:
        res["failed"] += 1
        res["failures"].append("traced outputs differ from untraced outputs")
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="replace the stored output digest with a wrong one "
                         "(checks that failures are counted)")
    args = ap.parse_args(argv)
    require_checkout()
    deadline = perf_counter() + TIME_LIMIT_S
    extra = ("--corrupt-expected",) if args.corrupt_expected else ()

    try:
        if args.trace:
            res = per_layer(args.workload, args.seed, deadline, extra)
            metrics = {k: {"value": v, "unit": unit(k)} for k, v in res["metrics"].items()}
        else:
            res = end_to_end(args.workload, args.seed, args.seconds, deadline, extra)
            metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in UNITS.items()}
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    print("environment: " + json.dumps(environment()))
    print("input size: " + json.dumps(res["size"]))
    print("output digest: " + json.dumps(res["digest"]))
    for line in res["failures"]:
        print(f"FAILED: {line}", file=sys.stderr)
    failed = res["failed"]
    attempted = res["attempted"]
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
