"""Measurement pieces of the benchmark: tail percentiles, result digests,
and an outside-in span recorder.

Nothing here imports `stochsched`; the recorder patches whatever module
attributes it is handed, so the tests can drive it with stand-ins.
"""
from __future__ import annotations

import hashlib
import math
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

# Tail candidates, lowest first.  The tail is the highest one that still
# leaves at least TAIL_MIN_BEYOND samples above it; the rungs are a
# decade apart so a run has to change its sample count tenfold before
# the reported percentile moves.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

DIGEST_HEX = 8

# Every time the benchmark reports is CPU seconds of this process.  The
# program runs on one thread and does no I/O inside a verdict, so on an
# idle machine this equals wall time; on a shared virtual machine it
# leaves out the stretches in which the host runs another tenant instead
# of this one, which wall time charges to whatever call was running.
clock = time.process_time


def _rank(count: int, pct: float) -> int:
    # exact, so 99.9 percent of 1000 samples is rank 999 and not 1000
    return max(math.ceil(count * Fraction(str(pct)) / 100), 1)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least `pct`
    percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank `pct` percentile of `count`."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it, or None when even the median has too few."""
    best = None
    for pct in TAIL_LADDER:
        if beyond(count, pct) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def digest(text: str) -> str:
    """Short content hash of one verdict's printed results."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


class Tally:
    """Verdict outcomes of one run: counts, failures with reasons, and
    each verdict's fastest repetition.

    The fastest, not the median: a shared host runs this code about 1.5
    times slower for stretches of seconds, and whether those stretches
    cover more or less than half of a run flips a median between its two
    speeds.  Ten 30-second sweep runs on a two-vCPU virtual machine
    spread 0.36-0.38 of their median in throughput, p50 and tail
    latency at each verdict's median repetition, and 0.01-0.07 at its
    fastest."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.best: dict[str, float] = {}

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def judge(self, key: str, verdict: Callable[[], tuple[bool, str]]) -> None:
        """Time one verdict and count it failed on a wrong bound, a digest
        mismatch or an exception.  `verdict` returns (bound holds, the
        printed results the digest covers)."""
        self.attempted += 1
        start = clock()
        try:
            ok, text = verdict()
        except Exception as exc:  # one broken verdict must not end the run
            self.failed += 1
            print(f"verdict {key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        elapsed = clock() - start
        if elapsed < self.best.get(key, math.inf):
            self.best[key] = elapsed
        got = digest(text)
        want = self.golden.get(key)
        if not ok:
            self.failed += 1
            print(f"verdict {key}: bound violated", file=sys.stderr)
        elif want != got:
            self.failed += 1
            print(f"verdict {key}: digest {got}, golden {want}", file=sys.stderr)


# ------------------------------------------------------------------ spans

class Recorder:
    """Spans around calls into the program, kept in memory.

    Each span is [name, start, end, parent index, work, count_s]: `work`
    maps count names to the work counted from the call's inputs or
    result after `end`, and `count_s` is the time that counting took.
    Counting happens inside the parent's interval, so `summary` subtracts
    it from every enclosing span; what remains unsubtracted is the
    per-call cost of the wrapper itself, which the traced-minus-untraced
    pass time reports as overhead.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             work: Optional[Callable[[tuple, dict, object], dict[str, int]]] = None) -> Callable:
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, None, 0.0]
            open_.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
            if work is not None:
                record[4] = work(args, kwargs, result)
                record[5] = clock() - record[2]
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds `s`, `self_s` (s minus the time
        child spans cover), `calls`, and each work count summed."""
        n = len(self.spans)
        hidden = [0.0] * n    # counting time spent inside each span
        children = [0.0] * n  # net seconds covered by direct children
        out: dict[str, dict[str, float]] = {}
        # children are appended after their parent, so a reverse scan
        # finishes every child before it reaches the parent
        for i in range(n - 1, -1, -1):
            name, start, end, parent, work, count_s = self.spans[i]
            net = end - start - hidden[i]
            if parent >= 0:
                hidden[parent] += hidden[i] + count_s
                children[parent] += net
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += net
            row["self_s"] += net - children[i]
            row["calls"] += 1
            for key, count in (work or {}).items():
                row[key] = row.get(key, 0) + count
        return out
