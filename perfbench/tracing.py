"""Spans around the program's layer entry points, kept in memory.

The benchmark wraps the public entry point of each layer from its own
files (nothing under ``src/`` changes).  A span records its name, start,
end, parent span and the answer (run id) it belongs to, plus counts read
at the same boundary (QWM regions, transient steps, ...).  Spans stay in
memory and are written out when the benchmark ends.

Process-pool workers are forked while a traced answer runs, so they
inherit the wrappers.  A worker keeps its own spans and writes them to
the dump directory when it exits; the parent folds them in after the
answer.  Worker times are busy time inside the workers, not part of the
parent's wall time.
"""

from __future__ import annotations

import glob
import json
import os
import time
from multiprocessing import util as mp_util
from typing import Callable, Dict, List, Optional

# Span record fields (lists, not objects, to keep the hot path cheap).
NAME, START, END, PARENT, RUN, COUNTS = range(6)

Counts = Callable[[object, tuple, dict], Optional[dict]]


class Tracer:
    """Monkeypatching span recorder for one benchmark process."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.active = False
        self.run: Optional[str] = None
        self.pid = os.getpid()
        self.in_worker = False
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.worker_spans: List[dict] = []
        self.missing: List[str] = []
        self._patches: List[tuple] = []
        # Turns object references kept in counts into plain data; runs
        # after an answer (parent) or at exit (worker), outside every
        # span.
        self.resolve: Callable[[dict], dict] = lambda counts: counts

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             counts: Optional[Counts] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if os.getpid() != tracer.pid:
                tracer._adopt_worker()
            stack = tracer.stack
            record = [name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, tracer.run, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                record[COUNTS] = {"raised": 1}
                raise
            finally:
                stack.pop()
                record[END] = time.perf_counter()
            if counts is not None:
                record[COUNTS] = counts(result, args, kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- answers -------------------------------------------------------
    def begin(self, run: str) -> None:
        self.run = run
        self.active = True

    def end(self) -> None:
        """Stop recording; resolve counts and fold in worker spans."""
        self.active = False
        for record in self.spans:
            if record[RUN] == self.run and record[COUNTS]:
                record[COUNTS] = self.resolve(record[COUNTS])
        for path in sorted(glob.glob(os.path.join(self.dump_dir,
                                                  "worker-*.json"))):
            with open(path) as handle:
                self.worker_spans.extend(json.load(handle))
            os.remove(path)
        self.run = None

    # -- worker side ---------------------------------------------------
    def _adopt_worker(self) -> None:
        """First traced call in a forked worker: start a fresh buffer."""
        self.pid = os.getpid()
        self.in_worker = True
        self.spans = []
        self.stack = []
        mp_util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        table = self_times(self.spans)
        out = []
        for record, self_s in zip(self.spans, table):
            counts = self.resolve(record[COUNTS]) if record[COUNTS] \
                else None
            out.append({"name": record[NAME], "run": record[RUN],
                        "worker": True, "pid": self.pid,
                        "start": record[START],
                        "end": record[END], "self": self_s,
                        "parent": record[PARENT], "counts": counts})
        path = os.path.join(self.dump_dir, f"worker-{self.pid}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(out, handle)
        os.replace(path + ".tmp", path)

    # -- output --------------------------------------------------------
    def records(self) -> List[dict]:
        """Every span, parent and workers, as plain dicts."""
        table = self_times(self.spans)
        out = [{"name": r[NAME], "run": r[RUN], "worker": False,
                "pid": self.pid,
                "start": r[START], "end": r[END], "self": s,
                "parent": r[PARENT], "counts": r[COUNTS]}
               for r, s in zip(self.spans, table)]
        return out + self.worker_spans

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record, default=str) + "\n")


def self_times(spans: List[list]) -> List[float]:
    """Span duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child[record[PARENT]] += record[END] - record[START]
    return [r[END] - r[START] - c for r, c in zip(spans, child)]


def layer_rows(records: List[dict], run: str,
               worker: bool) -> Dict[str, Dict[str, float]]:
    """Per layer name: calls, total and self seconds within one answer.

    ``worker`` selects spans recorded inside pool workers (True) or in
    the benchmark process itself (False).
    """
    rows: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record["run"] != run or record["worker"] != worker:
            continue
        row = rows.setdefault(record["name"],
                              {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += record["end"] - record["start"]
        row["self"] += record["self"]
    return rows


def count_sum(records: List[dict], run: str, name: str, key: str) -> float:
    """Sum of one count over the spans of a layer within one answer."""
    total = 0.0
    for record in records:
        if record["run"] == run and record["name"] == name \
                and record["counts"]:
            total += record["counts"].get(key, 0)
    return total
