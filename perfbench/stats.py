"""Latency statistics and failure accounting shared by the workloads.

Only the standard library is used here, so the helpers can be tested without
importing polydil.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 10 * TAIL_BEYOND


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``beyond`` samples above it.

    ``percentile`` is the share of samples at or below ``value``, in percent.
    Below ``TAIL_MIN_SAMPLES`` samples that percentile would fall under p90,
    or under the median for small counts, so the maximum is reported
    instead, with ``beyond`` = 0 saying so.
    """

    value: float
    percentile: float
    count: int
    beyond: int

    def describe(self) -> str:
        if self.beyond < TAIL_BEYOND:
            return f"max of {self.count} samples (fewer than {TAIL_MIN_SAMPLES})"
        return f"p{self.percentile:.1f} of {self.count} samples, {self.beyond} beyond"


def tail(samples) -> Tail:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < TAIL_MIN_SAMPLES:
        return Tail(ordered[-1], 100.0, n, 0)
    k = n - TAIL_BEYOND - 1
    return Tail(ordered[k], 100.0 * (k + 1) / n, n, n - 1 - k)


def mean_of_medians(per_input: dict) -> float:
    """The median of each input's samples, averaged over the inputs.  A
    median over inputs of different cost would jump between them as their
    shares of the samples change."""
    return statistics.fmean(statistics.median(v) for v in per_input.values())


def at_reference(seconds: float, loops, reference: float) -> float:
    """``seconds`` rescaled to the host speed at which the host-speed loop
    takes ``reference``, given the loop's times around and during the
    operation."""
    return seconds * reference / statistics.fmean(loops)


class Tally:
    """Counts every checked operation against the operations attempted.

    An operation *fails* when its output misses the workload's acceptance
    check, including a program verdict such as ``verify`` exiting 5.  An
    output is *unsound* when it is wrong in a way the program did not report:
    a crash, a document that contradicts its exit code, residuals beyond the
    documented limits, or bytes that differ from an earlier repeat of the same
    operation in this run.  Unsound outputs also count as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unsound = 0
        self.samples: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.failed_by_kind: dict[str, int] = defaultdict(int)
        self.notes: list[str] = []
        self._digests: dict[str, bytes] = {}

    def record(
        self,
        key: str,
        kind: str,
        seconds: float,
        passed: bool,
        sound: bool,
        digest: bytes | None,
    ) -> bool:
        """Account one operation; returns whether it passed."""
        self.attempted += 1
        if digest is not None:
            first = self._digests.setdefault(key, digest)
            if first != digest:
                passed = sound = False
                self.note(f"{key}: output bytes differ from an earlier repeat")
        if not sound:
            passed = False
            self.unsound += 1
        if not passed:
            self.failed += 1
            self.failed_by_kind[kind] += 1
            self.note(f"{key}: failed its check" + ("" if sound else " (unsound output)"))
        self.samples[kind][key].append(seconds)
        return passed

    def kind_seconds(self, kind: str) -> float:
        """The median time of each input of ``kind``, averaged over its
        inputs."""
        return mean_of_medians(self.samples[kind])

    def note(self, text: str) -> None:
        if len(self.notes) < 20 and text not in self.notes:
            self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.unsound == 0

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
