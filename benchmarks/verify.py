"""Checks of the benchmark itself.

    python3 benchmarks/verify.py counts
    python3 benchmarks/verify.py failures

counts:   two traced runs of each workload on the stored seed (the one
          expected.json holds digests for) must report identical
          deterministic per-layer metrics (every count, fraction and mean;
          not the times), the tracer's call counts must equal cProfile's
          ncalls for every wrapped function over the same traced rounds, and
          the metrics must be those BENCHMARK.json declares.
failures: a cli run on the stored seed must pass with no failure although it
          contains exit-1 negatives and exit-2 malformed inputs, and the same
          run against a corrupted expected digest must count a failure and
          exit nonzero; its metrics must be those BENCHMARK.json declares.

Exit status is 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalogue", "roundtrip", "oracle", "cli")


def result_of(script, *args):
    """Run a benchmark script; returns (exit status, last-line JSON, lines)."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1].removeprefix("RESULT ") if lines else "null"
    return proc.returncode, json.loads(last), lines


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith("_s") and k != "bench.trace_overhead_frac"}


def declared(kind):
    """(name, unit) pairs that BENCHMARK.json declares for `kind`."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench[kind]]


def check_counts():
    seed = json.loads((HERE / "expected.json").read_text())["seed"]
    ok = True
    for w in WORKLOADS:
        runs = [result_of("run.py", "--workload", w, "--seed", str(seed), "--trace", "1")
                for _ in range(2)]
        reported = [(k, v["unit"]) for k, v in runs[0][1]["metrics"].items()]
        if reported != declared("per_layer"):
            print(f"{w}: reported per-layer metrics differ from BENCHMARK.json")
            ok = False
        a, b = (deterministic(res["metrics"]) for _, res, _ in runs)
        diff = sorted(k for k in a if a[k] != b.get(k))
        same = not diff and all(code == 0 for code, _, _ in runs)
        print(f"{w}: two traced runs {'agree' if same else 'DIFFER'} "
              f"on {len(a)} deterministic metrics {diff or ''}")
        _, prof, _ = result_of("worker.py", "--workload", w, "--seed", str(seed),
                               "--mode", "profile")
        print(f"{w}: cProfile ncalls match the tracer for "
              f"{prof['compared'] - len(prof['mismatches'])} of {prof['compared']} "
              "wrapped functions")
        for m in prof["mismatches"]:
            print(f"    {m}")
        ok = ok and same and not prof["mismatches"] and prof["failed"] == 0
    return ok


def check_failures():
    args = ["--workload", "cli", "--seed", "0", "--seconds", "3", "--trace", "0"]
    code, res, lines = result_of("run.py", *args)
    reported = [(k, v["unit"]) for k, v in res["metrics"].items()]
    named = reported == declared("end_to_end")
    print(f"end-to-end metrics {'match' if named else 'DIFFER FROM'} BENCHMARK.json")
    kinds = json.loads(next(ln for ln in lines if ln.startswith("cases by kind: "))
                       .split(": ", 1)[1])
    clean = (code == 0 and res["failed"] == 0 and kinds.get("check-", 0) > 0
             and kinds.get("malformed", 0) > 0)
    print(f"clean run: exit {code}, failed {res['failed']} of {res['attempted']}, "
          f"with {kinds.get('check-', 0)} exit-1 and {kinds.get('malformed', 0)} "
          f"exit-2 cases -> {'ok' if clean else 'WRONG'}")
    code, res, _ = result_of("run.py", *args, "--corrupt-expected")
    caught = code != 0 and res["failed"] > 0 and not res["correct"]
    print(f"corrupted expected digest: exit {code}, failed {res['failed']} "
          f"of {res['attempted']} -> {'ok' if caught else 'WRONG'}")
    return named and clean and caught


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("check", choices=("counts", "failures"))
    args = ap.parse_args(argv)
    if args.check == "counts":
        ok = check_counts()
    else:
        ok = check_failures()
    print("all checks hold" if ok else "CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
