"""One workload in a fresh interpreter; started by run.py and verify.py.

    python3 benchmarks/worker.py --workload NAME --seed N --mode MODE [--rounds R]

Every mode first imports the package from the checkout and runs one
untimed warm-up case per (d, g) cell, then prints `READY <gen_s>`, where
gen_s is the time spent generating the warm-up inputs; the parent times
set-up from process start to that line, less gen_s.  The warm-up outputs are
checked after that line.  Then, by mode:

- setup:   exit.
- run:     closed loop, one caller, R rounds; each case is timed alone,
           inputs are generated between rounds, outside timing.  Reports
           every case's time as measured and scaled to the reference speed
           (see common.SpeedTrack).
- plain:   the workload's fixed traced rounds, untraced; reports their time
           at the reference speed.
- trace:   the same rounds under the span tracer; reports the per-layer
           metrics.  Plain and trace run in separate fresh workers, so
           neither pass finds state the other left behind.
- profile: the traced rounds under both the tracer and cProfile; reports
           every wrapped function whose counts disagree.

The last line is `RESULT <json>`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, SpeedTrack, import_from_checkout, require_checkout  # noqa: E402

# Rounds run by the trace and profile modes: enough for every layer's counts,
# small enough that the traced pass stays well inside a run's time limit.
TRACE_ROUNDS = {"catalogue": 1, "roundtrip": 2, "oracle": 1, "cli": 6}
EXPECTED = Path(__file__).resolve().parent / "expected.json"
WARMUP_SEED = "warmup"


class Runner:
    """Generates one workload's rounds for a seed, times cases, and keeps the
    failure count."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.failures = []
        self.attempted = 0

    def make_round(self, r):
        from workloads import round_rng

        rng = round_rng(self.wl.name, self.seed, r)
        cases = [self.wl.make(rng, r, d, g, kind) for d, g, kind in self.wl.plan()]
        rng.shuffle(cases)
        return cases

    def timed(self, case):
        """Run one case; returns (seconds, output or the exception)."""
        t0 = perf_counter()
        try:
            out = self.wl.run(case)
        except Exception as exc:  # a raising case is a failed case, not a crash
            return perf_counter() - t0, exc
        return perf_counter() - t0, out

    def judge(self, case, out):
        self.attempted += 1
        if isinstance(out, Exception):
            ok, text = False, f"{case.head()}: raised {out!r}"
        else:
            try:
                ok, text = self.wl.check(case, out)
            except Exception as exc:
                ok, text = False, f"{case.head()}: check raised {exc!r}"
        if not ok:
            self.failures.append(text)
        return text

    def fail_extra(self, message):
        """A failed check that is not a single case's output."""
        self.attempted += 1
        self.failures.append(message)

    def digest_check(self, texts, corrupt):
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        expected = json.loads(EXPECTED.read_text())
        want = expected["digests"].get(self.wl.name) if self.seed == expected["seed"] else None
        if want is not None and corrupt:
            want = "0" * len(want)
        if want is not None and digest != want:
            self.fail_extra(f"output digest {digest} != expected {want}")
        return {"digest": digest, "expected": want}


def warm_up(wl):
    """Run one warm-up case per cell; returns (seconds spent generating
    their inputs, a function that checks their outputs)."""
    rng = random.Random(WARMUP_SEED)
    gen_s = 0.0
    done = []
    for d, g in wl.cells:
        t0 = perf_counter()
        case = wl.make(rng, 0, d, g, wl.warm_kind)
        gen_s += perf_counter() - t0
        done.append((case, wl.run(case)))

    def check():
        for case, out in done:
            if not wl.check(case, out)[0]:
                raise SystemExit(f"warm-up case failed: {case.head()}")

    return gen_s, check


def mode_run(runner, rounds, corrupt):
    """Run `rounds` rounds of cases in sequence, timing each case alone and
    probing the machine's speed between cases."""
    times = []
    starts = []
    texts0 = []
    kinds = {}
    track = SpeedTrack()
    for r in range(rounds):
        for case in runner.make_round(r):
            track.sample()
            starts.append(perf_counter())
            dt, out = runner.timed(case)
            times.append(dt)
            text = runner.judge(case, out)
            kinds[case.kind] = kinds.get(case.kind, 0) + 1
            if r == 0:
                texts0.append(text)
    track.sample(force=True)
    return {
        "raw_times": times,
        "times": [dt * track.scale(t + dt / 2) for t, dt in zip(starts, times)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kinds": kinds,
        "digest": runner.digest_check(texts0, corrupt),
    }


def traced_pass(runner, rounds, tracer=None):
    """Time every case of `rounds`; returns (case seconds as measured, case
    seconds at the reference speed, outputs)."""
    outs = []
    total = scaled = 0.0
    track = SpeedTrack()
    for r, cases in enumerate(rounds):
        for c, case in enumerate(cases):
            if tracer is not None:
                tracer.case_id = r * 100_000 + c
            track.sample()
            t0 = perf_counter()
            dt, out = runner.timed(case)
            track.sample()
            total += dt
            scaled += dt * track.scale(t0 + dt / 2)
            outs.append(out)
    return total, scaled, outs


def judged(runner, rounds, outs):
    cases = [case for cs in rounds for case in cs]
    return [runner.judge(case, out) for case, out in zip(cases, outs)]


def mode_trace(runner, corrupt, traced):
    """Run the traced rounds, under the span tracer if `traced`."""
    rounds = [runner.make_round(r) for r in range(TRACE_ROUNDS[runner.wl.name])]
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        case_s, scaled, outs = traced_pass(runner, rounds, tracer)
    finally:
        if traced:
            tracer.uninstall()
    texts = judged(runner, rounds, outs)
    result = {"case_s": case_s, "scaled_s": scaled,
              "outputs": hashlib.sha256("\n".join(texts).encode()).hexdigest(),
              "digest": runner.digest_check(texts[:len(rounds[0])], corrupt)}
    if traced:
        tracer.write(OUT / f"spans-{runner.wl.name}", seed=runner.seed)
        result["metrics"] = tracer.metrics()
        result["spans"] = len(tracer.t0)
    return result


def mode_profile(runner):
    import cProfile
    import pstats

    from tracer import Tracer

    rounds = [runner.make_round(r) for r in range(TRACE_ROUNDS[runner.wl.name])]
    tracer = Tracer()
    tracer.install()
    prof = cProfile.Profile()
    try:
        prof.enable()
        _, _, outs = traced_pass(runner, rounds, tracer)
        prof.disable()
    finally:
        tracer.uninstall()
    judged(runner, rounds, outs)
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    compared = 0
    mismatches = []
    for key, n in sorted(tracer.code_counts().items()):
        profiled = stats.get(key, (0, 0))[1]
        compared += 1
        if n != profiled:
            mismatches.append({"function": f"{Path(key[0]).name}:{key[1]} {key[2]}",
                               "wrapper": n, "cprofile": profiled})
    return {"compared": compared, "mismatches": mismatches}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "plain", "trace", "profile"),
                    required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--corrupt-expected", action="store_true")
    args = ap.parse_args(argv)

    require_checkout()
    import_from_checkout("prymrep")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    import_from_checkout(wl.module)
    gen_s, check_warm_up = warm_up(wl)
    print(f"READY {gen_s!r}", flush=True)
    check_warm_up()
    if args.mode == "setup":
        return 0
    runner = Runner(wl, args.seed)
    if args.mode == "run":
        result = mode_run(runner, args.rounds, args.corrupt_expected)
    elif args.mode in ("plain", "trace"):
        result = mode_trace(runner, args.corrupt_expected, args.mode == "trace")
    else:
        result = mode_profile(runner)
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:5], size=wl.size())
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
