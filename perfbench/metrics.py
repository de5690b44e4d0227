"""Pure helpers of the campaign benchmark: spans, percentiles, records.

Nothing here imports the program under test, so the benchmark's own
tests exercise these rules without simulating anything.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# -- spans ------------------------------------------------------------------


class Span:
    """One timed call: name, start, end, the span that caused it, and
    a few facts about the call (``attrs``)."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process.

    :meth:`wrap` returns a function that records a span around every
    call of ``fn``; the span's parent is whichever wrapped call was
    running when it started.  ``tag(args, kwargs, result, error)`` may
    return a dict stored as the span's ``attrs``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(),
                               self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = self.clock()

    def wrap(self, name: str, fn, tag=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:  # re-raised: tag sees it too
                error = exc
                raise
            finally:
                self.close(index)
                if tag is not None:
                    self.spans[index].attrs = tag(args, kwargs, result,
                                                  error)
        return traced

    def ancestors(self, index: int) -> Iterable[str]:
        """Names of every span enclosing span ``index``, innermost first."""
        parent = self.spans[index].parent
        while parent >= 0:
            yield self.spans[parent].name
            parent = self.spans[parent].parent


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent and overlapping children are
    counted once, so the result never goes below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


# -- timing statistics ------------------------------------------------------

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)

#: Samples a reported percentile must have beyond it.
TAIL_MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    return max(math.ceil(round(pct * n / 100.0, 9)), 1)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest value with at least
    ``pct`` percent of the samples at or below it)."""
    return sorted(values)[_rank(len(values), pct) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ten of ``n`` samples
    beyond it, or ``None`` when not even the median qualifies."""
    for pct in TAIL_PERCENTILES:
        if n - _rank(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def latency_summary(values: Sequence[float]) -> dict:
    """Median, tail percentile (by :func:`tail_percentile`) and the
    sample count; the tail reads 0 when no percentile qualifies."""
    n = len(values)
    pct = tail_percentile(n)
    return {"p50": percentile(values, 50) if n else 0.0,
            "tail_pct": pct or 0.0,
            "tail": percentile(values, pct) if pct else 0.0,
            "samples": n}


# -- records ----------------------------------------------------------------

#: Record keys that say *how* a run was executed, never what it found.
PROVENANCE_KEYS = ("terminated_at", "prescreened", "prescreen_reason",
                   "stratum", "timings", "worker", "trace")


def record_key(record: dict) -> Tuple[str, str, int]:
    return (record["kernel"], record["structure"], record["run"])


def canonical(record: dict) -> dict:
    """The outcome of one run, independent of the path that produced it.

    A pre-screened run is Masked without simulating: it carries the
    golden outcome implicitly and has no injection log.
    """
    out = {k: v for k, v in record.items() if k not in PROVENANCE_KEYS}
    if record.get("prescreened"):
        out.update(status="completed", passed=True,
                   cycles=record["golden_cycles"],
                   message="Test PASSED", error="")
    return out


def same_outcome(record: dict, reference: dict) -> bool:
    """Whether ``record`` canonically equals its reference record."""
    want = canonical(reference)
    if record.get("prescreened"):
        want.pop("injections", None)
    return canonical(record) == want


def count_errors(records: Optional[Sequence[dict]],
                 reference: Dict[Tuple[str, str, int], dict],
                 same=same_outcome) -> int:
    """Planned runs that are missing from ``records`` or differ from
    their reference record; ``None`` (the campaign raised) loses all.
    Records outside the plan count too: the campaign ran something it
    was not asked to."""
    if records is None:
        return len(reference)
    by_key = {record_key(r): r for r in records}
    errors = sum(1 for key, ref in reference.items()
                 if key not in by_key or not same(by_key[key], ref))
    return errors + sum(1 for key in by_key if key not in reference)
