"""Paths and the environment record shared by the benchmark scripts.

The benchmark always measures the package in the checkout it lives in:
`<root>/src/prymrep`, never an installed copy.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def require_checkout() -> None:
    """Exit with code 2 unless the checkout holds the package sources."""
    if not (SRC / "prymrep" / "__init__.py").is_file():
        print(f"benchmark: no package sources at {SRC / 'prymrep'}; "
              "run from a full checkout", file=sys.stderr)
        sys.exit(2)


def import_from_checkout(module: str):
    """Import `module` from the checkout's src/ and verify where it came from."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = __import__(module, fromlist=["_"])
    import prymrep

    origin = Path(prymrep.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(
            f"benchmark: prymrep was imported from {origin}, not from {SRC}"
        )
    return mod


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_line_count() -> int:
    """Net line count of the package sources, the figure ROADMAP tracks."""
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "prymrep").glob("*.py")))


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "src_lines": src_line_count(),
    }


# ---------------------------------------------------------------------------
# Machine speed.  The benchmark runs on shared virtual machines whose speed
# swings by up to 1.8x for seconds to minutes at a time, whatever runs on
# them.  A fixed piece of pure-Python work, timed between cases, tracks that
# speed; timings are scaled to the speed at which the probe takes
# PROBE_REF_S, so a run measures the same whichever phase it lands in.

PROBE_REF_S = 0.0003  # the probe's time on the reference machine at full speed
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Seconds taken by a fixed mix of the interpreter work the package does:
    small-integer tuples, rational arithmetic, dicts keyed by tuples."""
    t0 = perf_counter()
    acc = 0
    row = tuple(range(1, 17))
    for i in range(36):
        t = tuple(a * (i + 3) - b for a, b in zip(row, reversed(row)))
        acc += sum(t) % 7
        f = Fraction(i + 1, 7) * Fraction(3, i + 2) + acc
        d = {t[:k]: k for k in range(8)}
        acc += len(d) + f.numerator % 5
    return perf_counter() - t0


def probe_median(n=3) -> float:
    return statistics.median(probe() for _ in range(n))


class SpeedTrack:
    """Probe readings over time; `scale(t)` is the factor that brings a time
    measured at `t` to the reference speed."""

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self, force=False):
        now = perf_counter()
        if force or not self.at or now - self.at[-1] >= PROBE_EVERY_S:
            self.took.append(probe())
            self.at.append(now)

    def scale(self, t, nearest=5):
        """The factor for a time measured at `t`, from the median of the
        `nearest` readings around it (two before and three after, for 5)."""
        i = bisect_left(self.at, t)
        window = self.took[max(i - nearest // 2, 0):i + nearest // 2 + 1]
        return PROBE_REF_S / statistics.median(window)
