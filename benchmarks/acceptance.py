"""Acceptance snapshot: the ten acceptance criteria, once each, at their
acceptance parameters (those of tests/test_acceptance.py), with wall time
and check count.

    python3 benchmarks/acceptance.py

Not a workload and not repeated: it records seconds next to the exact check
counts, which must stay 1800, 1800, 2198, 1500, 108, 280, 28, 5, 2200, 300.
Prints one line per criterion and the whole record as JSON on the last line,
and also writes it to benchmarks/out/acceptance.json.  Exit status is 0 when
every criterion passes with its count, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, environment, import_from_checkout, require_checkout  # noqa: E402

SEED = 0
# (criterion, sweep, arguments, keyword arguments, expected check count)
CRITERIA = [
    (1, "identity_sweep", (range(2, 11), range(2, 6)), {}, 1800),
    (2, "commutator_sweep", (range(2, 11), range(2, 6)), {}, 1800),
    (3, "soundness_sweep", (range(2, 9), range(2, 5)), {"seed": SEED}, 2198),
    (4, "delta_roundtrip_sweep", ((2, 3, 4, 5, 12), (2, 3, 5)),
     {"count": 100, "seed": SEED}, 1500),
    (5, "lambda_roundtrip_sweep", ((2, 3, 5, 7), (2, 3, 4)),
     {"per_cell": 9, "seed": SEED, "max_len": 6}, 108),
    (6, "oracle_sweep", (range(2, 9), range(2, 6)),
     {"per_cell": 8, "pairs_per_cell": 2, "seed": SEED, "max_moves": 8}, 280),
    (7, "deck_scalar_sweep", (range(2, 9), range(2, 6)), {}, 28),
    (8, "remark_crosscheck", (), {}, 5),
    (9, "real_basis_sweep", (range(2, 13),), {"count": 200, "seed": SEED}, 2200),
    (10, "genus2_sweep", (range(2, 10),),
     {"count": 200, "theta_pairs": 100, "seed": SEED}, 300),
]


def main():
    require_checkout()
    sweeps = import_from_checkout("prymrep.sweeps")
    rows = []
    for criterion, name, args, kwargs, want in CRITERIA:
        t0 = perf_counter()
        rep = getattr(sweeps, name)(*args, **kwargs)
        seconds = perf_counter() - t0
        ok = rep.ok and rep.checked == want
        rows.append({"criterion": criterion, "sweep": rep.name, "seconds": seconds,
                     "checks": rep.checked, "expected_checks": want, "ok": ok,
                     "detail": rep.detail})
        print(f"criterion {criterion:2d} {rep.name:22s} {seconds:8.2f} s "
              f"{rep.checked:5d} checks (want {want}) {'ok' if ok else 'FAIL'}",
              flush=True)
    record = {"environment": environment(), "criteria": rows,
              "total_seconds": sum(r["seconds"] for r in rows),
              "ok": all(r["ok"] for r in rows)}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "acceptance.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
