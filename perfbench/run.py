"""graphkt benchmark: seeded workloads, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload harness-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a graphkt checkout: the library is imported from its
``src/`` directory, never from anywhere else. A run sets up (imports
graphkt and makes the inputs from the seed), then repeats whole rounds
over the inputs until the operations have taken ``--seconds``, setting up
again after each round, then checks every output. Operation times are
reported in reference loops (``ref``): each operation's seconds divided
by the time of a fixed pure-Python loop run beside it (see refclock).
With ``--trace 1`` it first times one round untraced, then traces rounds
and reports per-layer metrics instead of end-to-end ones; spans go to
perfbench/out/.
``--workload all`` runs each workload in a child process of its own.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-ups timed after every round of an untraced run.
SETUP_REPEATS = 5


def import_graphkt():
    """Import graphkt afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "graphkt" or n.startswith("graphkt.")]:
        del sys.modules[name]
    gk = importlib.import_module("graphkt")
    if Path(gk.__file__).resolve().parent != SRC / "graphkt":
        raise ImportError(f"graphkt was imported from {gk.__file__}, not {SRC}")
    return gk


def setup(wl, seed: int):
    """Import and input generation; returns (graphkt, cases, seconds)."""
    t0 = time.perf_counter()
    gk = import_graphkt()
    cases = wl.make_cases(gk, seed)
    return gk, cases, time.perf_counter() - t0


class Run:
    """Operations attempted so far, their times and their first outputs."""

    def __init__(self, gk, wl, cases):
        self.gk, self.wl, self.cases = gk, wl, cases
        self.times = [[] for _ in cases]  # seconds of each operation, per case
        self.costs = [[] for _ in cases]  # the same in reference loops
        self.clock = RefClock(wl.ref_scan)
        self.first = [None] * len(cases)  # summary of each case's first output
        self.bad = [0] * len(cases)  # later outputs that differ from the first
        self.errors = {}
        self.rounds = 0

    def round(self, tracer=None) -> tuple:
        """One pass over every case; returns the seconds the operations
        took and their cost in reference loops."""
        total = 0.0
        done = self.clock.total
        self.clock.start()
        for i, case in enumerate(self.cases):
            if tracer is not None:
                tracer.op = self.rounds * len(self.cases) + i
                tracer.family = case.family
            t0 = time.perf_counter()
            try:
                out = self.wl.op(self.gk, case)
            except Exception as exc:  # a crash fails this operation only
                out = None
                self.errors.setdefault(i, f"raised {exc!r}")
            dt = time.perf_counter() - t0
            total += dt
            self.times[i].append(dt)
            self.clock.add(i, dt, self.costs)
            if out is None:
                continue
            try:
                summary = self.wl.summarise(case, out)
            except Exception as exc:  # an output of the wrong shape
                self.errors.setdefault(i, f"unreadable output: {exc!r}")
                continue
            if self.first[i] is None:
                self.first[i] = summary
            elif summary != self.first[i]:
                self.bad[i] += 1
        self.clock.flush(self.costs)
        self.rounds += 1
        return total, self.clock.total - done

    def check(self) -> tuple:
        """Attempted and failed operations, and the problems found."""
        problems = {}
        for i, case in enumerate(self.cases):
            found = [self.errors[i]] if i in self.errors else []
            if self.first[i] is not None:
                try:
                    found += self.wl.check(self.gk, case, self.first[i])
                except Exception as exc:  # an output the checks cannot read
                    found.append(f"check raised {exc!r}")
            if found:
                problems[i] = found
        failed = 0
        for i in range(len(self.cases)):
            failed += self.rounds if i in problems else self.bad[i]
        return self.rounds * len(self.cases), failed, problems


def measure(run: Run, seconds: float, tracer=None, after_round=None) -> tuple:
    """Whole rounds until the operations have taken ``seconds``; returns
    (seconds taken, their cost in reference loops, rounds)."""
    spent, cost, rounds = 0.0, 0.0, 0
    while spent < seconds or rounds == 0:
        dt, dc = run.round(tracer)
        spent, cost, rounds = spent + dt, cost + dc, rounds + 1
        if after_round is not None:
            after_round()
    return spent, cost, rounds


def case_costs(run: Run, skip: int) -> list:
    """Each case's cost: the median of its repetitions after the first
    ``skip`` rounds, in reference loops."""
    return [statistics.median(c[skip:]) for c in run.costs]


def result_line(run, metrics) -> dict:
    attempted, failed, problems = run.check()
    for i, found in problems.items():
        for p in found:
            print(f"FAILED {run.wl.name} case {i} ({run.cases[i].family}): {p}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    gk, cases, setup_s = setup(wl, seed)
    run = Run(gk, wl, cases)
    if not trace:
        # Set-up is timed again SETUP_REPEATS times after every round, so
        # that its median is taken over the whole run rather than one
        # moment of it; the modules and inputs of these repeats are thrown
        # away.
        setups = [setup_s]

        def set_up_again():
            for _ in range(SETUP_REPEATS):
                setups.append(setup(wl, seed)[2])
                gc.collect()  # free the thrown-away modules before going on

        measure(run, seconds, after_round=set_up_again)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cost = case_costs(run, 0)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_kref": (1000 * len(cost) / sum(cost), "1/kref"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        # Wall-clock figures, which follow the machine's speed, for people.
        wall = [statistics.median(t) for t in run.times]
        print(f"{name}: wall clock {len(wall) / sum(wall):.4g} ops/s, median operation "
              f"{statistics.median(wall) * 1e3:.4g} ms, reference loop "
              f"{statistics.median(run.clock.loops) * 1e3:.4g} ms", file=sys.stderr)
        return result_line(run, metrics)
    _, untraced = run.round()
    tracer = Tracer()
    tracer.install(gk)
    try:
        _, cost, rounds = measure(run, seconds, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(rounds)
    metrics["op_p50_ref"] = (statistics.median(case_costs(run, 1)), "ref")
    metrics["trace.overhead_pct"] = ((cost / rounds / untraced - 1) * 100, "%")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{name}-seed{seed}.jsonl")
    return result_line(run, metrics)


def run_all(args) -> int:
    """Every workload in a process of its own, one after the other."""
    lines = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, line in lines.items():
        print(f"{name}: attempted {line['attempted']} failed {line['failed']}")
        for metric, m in line["metrics"].items():
            print(f"  {metric:50s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{name}.{metric}": m for name, line in lines.items()
                    for metric, m in line["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "graphkt" / "__init__.py").is_file():
        print(f"no graphkt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
