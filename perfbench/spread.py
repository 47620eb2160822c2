"""Run each workload on several seeds and report the median and spread.

    python3 perfbench/spread.py                      # every workload, seeds 1..10
    python3 perfbench/spread.py --workload dense-snf --seeds 5 --trace 1

For every metric it prints the median of the runs, the distance between
their first and third quartiles as a share of the median, and, for
end-to-end metrics, the bound BENCHMARK.json allows. Runs go one after
the other, each in its own process, with BENCHMARK.json's run length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default every workload)")
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    for name in names:
        lines = [one_run(name, seed, args.trace) for seed in range(1, args.seeds + 1)]
        shares = {line["failed"] / line["attempted"] for line in lines}
        ok = all(line["correct"] for line in lines)
        print(f"{name}: {len(lines)} runs, all correct: {ok}, failed shares {sorted(shares)}")
        for metric in lines[0]["metrics"]:
            values = [line["metrics"][metric]["value"] for line in lines]
            unit = lines[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            note = ""
            if metric in bounds:
                note = f"bound {bounds[metric]:.2f}"
                if metric != "setup_s" and spread > bounds[metric] / 3:
                    note += "  WIDE"
                    steady = False
            print(f"  {metric:48s} median {med:12.6g} {unit:6s} spread {spread:6.1%}  {note}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
        steady = steady and ok and len(shares) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
