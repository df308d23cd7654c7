"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload desk --seeds 1 2 3 4 5 --seconds 20

Runs ``bench/run.py --trace 0`` once per seed, one process after
another, and prints for each metric its median, quartiles and spread:
the distance between the first and third quartile as a share of the
median, the figure each metric's bound in ``BENCHMARK.json`` is judged
against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list] = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    report = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                        "bound": bounds.get(name), "values": vals}
        print(f"{name:24s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  bound {bounds.get(name)}")
    out = ROOT / ".bench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                               "metrics": report}, indent=1))


if __name__ == "__main__":
    main()
