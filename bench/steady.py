"""Steadiness check: run one workload under several seeds and report each metric's spread.

    python3 bench/steady.py --workload construct

Runs bench/run.py once for each of the seeds 1 to 10, one after another,
for run_seconds from BENCHMARK.json with tracing off, and prints for every
end-to-end metric its
median and the distance between the first and third quartile as a share of
the median, next to the bound in BENCHMARK.json.  A metric is steady when
that spread stays below a third of its bound.  Each run's JSON line is
appended to bench/results/<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in SEEDS:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        with open(results_dir / f"{args.workload}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        result = json.loads(line)
        if not result["correct"]:
            print(f"seed {seed}: wrong answers\n{proc.stderr}", file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"], result["failed"] / result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))

    print(f"\n{args.workload}: {len(SEEDS)} runs of {seconds} s; failed/attempted shares "
          f"{sorted({s[2] for s in shares})}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        verdict = ("steady" if spread < bound / 3 else "NOT steady") + f" (bound {bound})"
        print(f"  {name:32s} median {med:12.5g}  spread {spread:7.2%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
