"""The repo benchmark: one command, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sta-decoder4 --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``sta-decoder4``, ``sta-decoder4-pool``, ``sta-random-logic``,
``paper-arcs`` (see ``perfbench/README.md``).  With ``--trace 0`` the
last stdout line is a JSON object whose metrics are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its per-layer
metrics, from a run whose answers alternate untraced and traced.

The measuring process is a child (``perfbench/bench.py``) in its own
process group.  This parent times set-up from outside (fresh
interpreters), samples the memory of the child and its pool workers
(summed PSS), and kills the group when one answer outlives the wall-clock
limit; the arcs of that answer count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

from bench import PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(HERE, "bench.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "run_s": "s", "run_s_tail": "s",
              "arcs_per_s": "arcs/s", "peak_rss_mb": "MB"}
#: Extra fresh-interpreter set-ups per untraced run (the measuring
#: process's own set-up is one more sample).
SETUP_PROBES = 2
#: Wall-clock limit of one answer [s]; beyond it the answer is hung.
ANSWER_LIMIT = 100.0
#: Whole-run budget [s]; a run must end within 180 s.
RUN_BUDGET = 170.0
#: Memory sampling period [s].
POLL = 0.2


def tail(values):
    """(value, percentile): the highest percentile of ``values`` with at
    least ten samples beyond it; the maximum when there are fewer than
    twenty samples, since no percentile above the median has ten."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    rank = n - 10  # ten samples lie beyond this one
    return ordered[rank - 1], 100.0 * rank / n


# ----------------------------------------------------------------------
# Process-tree memory.
# ----------------------------------------------------------------------
def _proc_table():
    """pid -> (ppid, pgrp) for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(entry)] = (int(fields[1]), int(fields[2]))
    return table


def _pss(pid: int) -> int:
    """Proportional set size of one process in bytes: each page shared
    by n processes (copy-on-write pages of forked pool workers, shared
    libraries) counts 1/n."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    return 0


def tree_memory(root: int) -> int:
    """Resident bytes of ``root`` and all of its descendants, shared
    pages counted once over the tree (summed PSS)."""
    table = _proc_table()
    members = {root}
    grew = True
    while grew:
        grew = False
        for pid, (ppid, _) in table.items():
            if ppid in members and pid not in members:
                members.add(pid)
                grew = True
    total = 0
    for pid in members:
        try:
            total += _pss(pid)
        except OSError:
            pass
    return total


def group_alive(pgrp: int) -> bool:
    return any(g == pgrp for _, g in _proc_table().values())


# ----------------------------------------------------------------------
class Child:
    """One ``bench.py`` process, watched until it exits or hangs."""

    def __init__(self, role: str, args, deadline: float):
        self.messages = {}
        self.ends = []
        self.peak_rss = 0
        self.hung = None
        # Wall time of the answer in flight when the child was killed.
        self.killed_wall = None
        self.setup_s = None
        self.deadline = deadline
        command = [sys.executable, BENCH, role, "--workload",
                   args.workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        env = dict(os.environ, TMPDIR=OUT_DIR, PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env,
                                     start_new_session=True)

    def watch(self) -> "Child":
        fd = self.proc.stdout.fileno()
        buffer = b""
        answer_start = None
        while True:
            ready, _, _ = select.select([fd], [], [], POLL)
            now = time.perf_counter()
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                buffer += chunk
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    answer_start = self._handle(line, now, answer_start)
            self.peak_rss = max(self.peak_rss, tree_memory(self.proc.pid))
            if answer_start is not None \
                    and now - answer_start > ANSWER_LIMIT:
                self.hung = "answer exceeded the wall-clock limit"
            elif now > self.deadline:
                self.hung = "run exceeded its budget"
            if self.hung:
                if answer_start is not None:
                    self.killed_wall = now - answer_start
                self.kill()
                break
        self.proc.stdout.close()
        self.proc.wait()
        return self

    def _handle(self, line: bytes, now: float, answer_start):
        text = line.decode("utf-8", "replace")
        if not text.startswith("@pb "):
            print(text, file=sys.stderr)
            return answer_start
        message = json.loads(text[4:])
        event = message["event"]
        self.messages[event] = message
        if event == "ready":
            self.setup_s = now - self.started
        elif event == "start":
            return now
        elif event == "end":
            self.ends.append(message)
            return None
        return answer_start

    def kill(self) -> None:
        """Kill the child's whole process group and wait it out."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for _ in range(50):
            if not group_alive(self.proc.pid):
                break
            time.sleep(0.1)


def run_probe(args, deadline: float):
    child = Child("probe", args, deadline).watch()
    if child.proc.returncode != 0 or child.setup_s is None:
        raise SystemExit(f"perfbench: set-up probe failed "
                         f"(exit {child.proc.returncode})")
    return child.setup_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repo benchmark: QWM static timing analysis.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny designs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: {ROOT} has no src/repro to measure",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    began = time.perf_counter()
    deadline = began + RUN_BUDGET

    setup = []
    if not args.trace:
        setup = [run_probe(args, deadline) for _ in range(SETUP_PROBES)]
    child = Child("measure", args, deadline).watch()
    result = child.messages.get("result")
    ready = child.messages.get("ready")
    if ready is None or (result is None and not child.hung):
        print(f"perfbench: measuring process failed "
              f"(exit {child.proc.returncode})", file=sys.stderr)
        return 1
    setup.append(child.setup_s)

    arcs = ready["arcs"]
    if result is not None:
        answers = result["answers"]
        attempted, failed = result["attempted"], result["failed"]
    else:
        answers = [{"wall": e["wall"], "traced": e["traced"]}
                   for e in child.ends]
        attempted, failed = arcs * len(answers), 0
    if child.hung:
        # The answer in flight (or the checks after the last one) never
        # finished: count a whole answer's arcs as failed.
        attempted += arcs
        failed += arcs
        if child.killed_wall is not None:
            answers.append({"wall": child.killed_wall, "traced": False})
    correct = failed == 0 and result is not None

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} "
          f"python={platform.python_version()}")
    if result is not None:
        props = " ".join(f"{k}={v:.4g}" if isinstance(v, float)
                         else f"{k}={v}"
                         for k, v in result["properties"].items())
        print(f"workload: {props}")
        for note in result["notes"]:
            print(f"check: {note}")
    if child.hung:
        print(f"check: {child.hung}; killed, {arcs} arcs counted failed")

    if args.trace:
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        if result is None:
            metrics = {name: 0.0 for name in units}
        else:
            metrics = result["per_layer"]
            print(result["layer_table"])
            print(f"workload: dc.useful_ratio="
                  f"{metrics['dc.useful_ratio']:.4g} "
                  f"sharing_ratio={metrics['workload.sharing_ratio']:.4g}")
    else:
        walls = [a["wall"] for a in answers if not a["traced"]]
        run_s = statistics.median(walls)
        tail_s, pct = tail(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "run_s_tail": tail_s,
            "arcs_per_s": arcs / run_s,
            "peak_rss_mb": child.peak_rss / 2 ** 20,
        }
        units = END_TO_END
        print(f"setup_s: median of {len(setup)} fresh set-ups: "
              + ", ".join(f"{s:.3f}" for s in setup))
        print(f"run_s: median of {len(walls)} answers; run_s_tail is "
              f"p{pct:g} of n={len(walls)}; answers: "
              + ", ".join(f"{w:.3f}" for w in walls))
        if result is not None and result["accuracy"]:
            print("accuracy vs 1 ps SPICE: " + " ".join(
                f"{k}={v:.4g}" for k, v in result["accuracy"].items()))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
