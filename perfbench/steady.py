"""Steadiness check: two sets of runs of the same code must agree within the
benchmark's own bounds.

    python3 perfbench/steady.py

Runs ``perfbench/run.py`` on every workload of ``BENCHMARK.json``, in two
sets of ten runs with seeds 1 to 10, each run ``run_seconds`` long, one run at
a time, from the repository root. For every end-to-end metric it prints the
median, the quartiles and the sample count of each set, and the spread, i.e.
the distance between the quartiles as a share of the median
(``statistics.quantiles``, n=4). A set fails when a spread exceeds the
metric's bound; the second set fails when its median is worse than the
first's by more than the bound. Exit status 1 on any failure. Raw results go
to ``perfbench/.out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    raw: dict = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        raw[workload] = [[run_once(workload, seed, seconds) for seed in SEEDS] for _ in range(SETS)]
        print(f"== {workload}: {SETS} sets of {len(SEEDS)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}, {seconds} s each")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [summarize([run[name] for run in runs]) for runs in raw[workload]]
            line = f"  {name:<20} bound {bound:<5}"
            for k, s in enumerate(sets, start=1):
                line += (f" | set{k} n={s['n']} median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g}"
                         f" spread {s['spread']:.4f}")
                if s["spread"] > bound:
                    ok = False
                    line += " SPREAD>BOUND"
                elif s["spread"] > bound / 3:
                    line += " (spread>bound/3)"
            a, b = sets[0]["median"], sets[1]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            line += f" | drift {worse:+.4f}"
            if worse > bound:
                ok = False
                line += " DRIFT>BOUND"
            print(line, flush=True)
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"seeds": list(SEEDS), "runs": raw}, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
