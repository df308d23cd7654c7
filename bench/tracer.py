"""In-memory span tracer for the rankqda layers.

The package modules look their collaborators up as module attributes at
call time (``qda.fit_rqda``, ``projections.project``, ``ensemble.substream``
and so on), so replacing those attributes with timing wrappers records
every real call without editing the package. Each wrapped call appends
one span (name, parent span, start, end) to flat arrays; spans are only
summarised or written out after the measured work is done.

A span's self time is its duration minus the durations of its direct
children. Calls on one thread nest strictly, so children never overlap
and the self times of all spans add up to the duration of the root spans.
"""

import time
from array import array

import numpy as np


class Tracer:
    """Records spans and computed counts for wrapped module attributes."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``counter(tracer, args, result)`` runs after a successful call to
        add computed counts (rows, flops, bytes). A call that raises is
        counted under ``<name>.<ExceptionClass>`` and the exception
        propagates unchanged.
        """
        original = getattr(owner, attr)
        nid = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0)
            tracer._stack.append(sid)
            tracer.start.append(tracer.clock())
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer.add(f"{name}.{type(exc).__name__}", 1)
                raise
            finally:
                tracer.end[sid] = tracer.clock()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put back every original attribute, newest wrapper first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def self_times_ns(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        return duration - children

    def summary(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}`` over every recorded span."""
        ids = np.array(self.name_id, dtype=np.int32)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_ns = np.bincount(ids, weights=self.self_times_ns(), minlength=k)
        return {
            name: (int(calls[i]), float(self_ns[i]) / 1e9)
            for i, name in enumerate(self.names)
        }

    def calls_under(self, name: str, root: str) -> int:
        """Spans named ``name`` whose outermost enclosing span is named ``root``."""
        if name not in self._ids or root not in self._ids:
            return 0
        ids = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        # Pointer jumping: a parent always has a smaller id than its child.
        top = np.where(parent < 0, np.arange(len(parent)), parent)
        while True:
            up = parent[top]
            nxt = np.where(up < 0, top, up)
            if np.array_equal(nxt, top):
                break
            top = nxt
        hits = (ids == self._ids[name]) & (ids[top] == self._ids[root])
        return int(np.count_nonzero(hits))

    def save(self, path) -> None:
        """Write all spans to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
        )
