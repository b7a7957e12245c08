"""Benchmark arithmetic and the result printer.

Kept free of the program's imports so the self-test can check it alone.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank *q*-th percentile and how many samples lie beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
    beyond = sum(1 for v in ordered if v > value)
    return value, beyond


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def load_spec(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def result_line(
    spec_metrics: List[Dict],
    values: Dict[str, float],
    correct: bool,
    attempted: int,
    failed: int,
) -> str:
    """The final JSON line: every metric the spec names, with its unit.

    A metric the run did not produce is an error in the benchmark, not
    a value to leave out.
    """
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec_metrics
    }
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


class Ledger:
    """Attempted / succeeded / failed operations, per stage."""

    def __init__(self):
        self.stages: Dict[str, List[int]] = {}
        self.failures: List[str] = []

    def record(self, stage: str, ok: bool, what: str = "") -> bool:
        counts = self.stages.setdefault(stage, [0, 0])
        counts[0] += 1
        if not ok:
            counts[1] += 1
            if len(self.failures) < 20:
                self.failures.append(f"{stage}: {what}")
        return ok

    def record_many(self, stage: str, attempted: int, failed: int) -> None:
        counts = self.stages.setdefault(stage, [0, 0])
        counts[0] += attempted
        counts[1] += failed

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.stages.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.stages.values())

    def describe(self) -> List[str]:
        return [
            f"{stage}: attempted {a}, succeeded {a - f}, failed {f}"
            for stage, (a, f) in self.stages.items()
        ] + [f"FAILED {line}" for line in self.failures]
