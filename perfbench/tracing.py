"""In-memory span recorder for the traced benchmark run.

The program has no spans of its own yet, so the benchmark wraps the
public call each layer exposes (``Tracer.wrap``) and records one span per
call: layer name, start, end, parent span and the id of the stage round
(``group``) the call served.  Spans live in flat columns until the run
ends; :func:`layer_totals` and :func:`self_times` turn them into per-layer
numbers and :meth:`Tracer.write_chrome` writes Chrome trace-event JSON,
which Perfetto and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

#: Spans written to the trace file; the metrics always use every span.
MAX_TRACE_EVENTS = 200_000


class Tracer:
    """Records nested wall-clock spans of synchronous calls."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.groups: List[str] = ["-"]
        self.group = 0
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.group_col = array("i")
        self.count_col = array("q")
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.active = True
        # Fleet workers are forked from the traced process and inherit
        # the wrapped classes; their spans would never be collected.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = len(self.names)
            self._name_ids[name] = index
            self.names.append(name)
        return index

    def begin(self, name: str, count: int = 0) -> int:
        index = len(self.start_col)
        self.name_col.append(self._name_id(name))
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.group_col.append(self.group)
        self.count_col.append(count)
        self.end_col.append(float("nan"))
        self._stack.append(index)
        self.start_col.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.end_col[index] = time.perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str, group: Optional[str] = None):
        """A harness span; *group* starts a new stage-round id."""
        if group is not None:
            self.groups.append(group)
            self.group = len(self.groups) - 1
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper until restore().

        *count* maps the call's arguments to the number of requests the
        call serves (frames, request lists); it is stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer.begin(name, count(*args, **kwargs) if count else 0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    # -- results -------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """Closed spans as numpy columns (names as strings)."""
        names = np.array(self.names + [""], dtype=object)
        return {
            "name": names[np.array(self.name_col, dtype=np.int64)],
            "start": np.array(self.start_col, dtype=np.float64),
            "end": np.array(self.end_col, dtype=np.float64),
            "parent": np.array(self.parent_col, dtype=np.int64),
            "group": np.array(self.group_col, dtype=np.int64),
            "count": np.array(self.count_col, dtype=np.int64),
        }

    def write_chrome(self, path: str, metadata: Dict) -> int:
        """Write spans as Chrome trace-event JSON; returns events written."""
        cols = self.columns()
        origin = cols["start"].min() if len(cols["start"]) else 0.0
        written = min(len(cols["start"]), MAX_TRACE_EVENTS)
        events = []
        for i in range(written):
            events.append(
                {
                    "name": cols["name"][i],
                    "cat": cols["name"][i].split(".")[0],
                    "ph": "X",
                    "ts": round((cols["start"][i] - origin) * 1e6, 3),
                    "dur": round((cols["end"][i] - cols["start"][i]) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span": i,
                        "parent": int(cols["parent"][i]),
                        "id": self.groups[cols["group"][i]],
                        "requests": int(cols["count"][i]),
                    },
                }
            )
        metadata = dict(metadata, spans=len(cols["start"]), written=written)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": metadata,
                },
                handle,
            )
        return written


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from synchronous calls, so siblings never overlap and
    the covered part of a parent is the sum of its children.
    """
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered[: len(duration)]


def layer_totals(cols: Dict[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds, requests."""
    duration = cols["end"] - cols["start"]
    own = self_times(cols["parent"], duration)
    totals: Dict[str, Dict[str, float]] = {}
    for name in np.unique(cols["name"]):
        mask = cols["name"] == name
        totals[str(name)] = {
            "calls": int(mask.sum()),
            "busy_s": float(duration[mask].sum()),
            "self_s": float(own[mask].sum()),
            "requests": int(cols["count"][mask].sum()),
        }
    return totals


def nested_calls(
    cols: Dict[str, np.ndarray], child: str, parents: set
) -> int:
    """Spans named *child* whose direct parent is named in *parents*."""
    has_parent = cols["parent"] >= 0
    parent_names = np.full(len(cols["parent"]), "", dtype=object)
    parent_names[has_parent] = cols["name"][cols["parent"][has_parent]]
    mask = (cols["name"] == child) & np.isin(parent_names, list(parents))
    return int(mask.sum())
