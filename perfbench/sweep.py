"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads design-flow,...]

Runs every workload once per seed, rotating the workload order from seed
to seed so host drift lands on every workload alike.  For each
end-to-end metric it prints the median of the runs and the inter-quartile
distance as a share of the median, next to the metric's bound and a
third of it (the target for a steady benchmark).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from report import load_spec, median, quartile_spread  # noqa: E402


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write every run's result here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for k, seed in enumerate(_seeds(args.seeds)):
        order = workloads[k % len(workloads):] + workloads[: k % len(workloads)]
        for workload in order:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs[workload].append(dict(result, seed=seed, notes=lines[:-1]))
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}",
                flush=True,
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1)
    steady = True
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            target = metric["bound"] / 3
            ok = spread < target
            steady &= ok
            print(
                f"  {metric['name']:<20} median {median(values):<14.6g} "
                f"spread {spread:7.4f}  bound {metric['bound']:.3f} "
                f"(/3 {target:.4f}) {'ok' if ok else 'WIDE'}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
