"""tagevol benchmark: one workload, one run.

    python3 perfbench/run.py --workload evolve-cpu --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``./src``.
Inputs are generated from ``--seed``. Iterations repeat until ``--seconds``
have passed (at least one). With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
iterations alternate and the JSON holds the per-layer metrics, derived from
spans that are also written to ``perfbench/.out/trace-<workload>.jsonl``.
Human-readable lines above the JSON give every metric with its unit.
Exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from spans import Tracer, derive, owned_self_times  # noqa: E402  (siblings of this file)
from workloads import WORKLOADS, CheckFailed  # noqa: E402


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tagevol.cli; print(time.perf_counter() - t)"
)


def import_library():
    """Import ``tagevol`` (with its CLI module) from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import tagevol
    import tagevol.cli  # noqa: F401

    if not Path(tagevol.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"tagevol resolved to {tagevol.__file__}, outside {ROOT / 'src'}")
    return tagevol


def import_seconds() -> float:
    """Import time of ``tagevol.cli`` in a fresh interpreter; an import can be
    timed only once per process."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def iterate(job, index: int, tracer=None) -> dict:
    """One iteration; returns its numbers only, so that no output of one
    iteration stays alive (and slows the collector) during the next."""
    gc.collect()
    it_dir = job.work / f"it{index}"
    job.fresh(it_dir)
    if tracer is not None:
        tracer.install(job.tv)
    try:
        setups = []
        for _ in range(SETUP_REPEATS if index == 0 else 1):
            t0 = time.perf_counter()
            state = job.setup(it_dir)
            t1 = time.perf_counter()
            setups.append(t1 - t0)
        if tracer is not None and hasattr(state, "gateway"):
            tracer.install_gateway(state.gateway)
            state.sleep.tracer = tracer
        c1 = time.process_time()
        outcome = job.run(state)
        c2 = time.process_time()
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    job.check(outcome, first=index == 0)
    shutil.rmtree(it_dir)
    wall = t2 - t1
    backend = outcome.backend
    return {
        "setup_s": setups,
        "wall_s": wall,
        "accepted": outcome.accepted,
        "layers": derive(tracer.spans, outcome.facts) if tracer is not None else None,
        "records_per_s": outcome.accepted / wall,
        "cpu_s": c2 - c1,
        "cpu_ms_per_record": 1e3 * (c2 - c1) / outcome.accepted,
        "backend_calls_per_record": (backend.sends if backend else 0) / outcome.accepted,
        "slot_utilization": backend.busy_s / (job.slots * wall) if backend else 0.0,
        "failed_share": outcome.failed / outcome.attempted if outcome.attempted else 0.0,
    }


def median(rows, key):
    values = [r[key] for r in rows if r[key] is not None]
    return statistics.median(values) if values else None


# The first iteration sets up this many times, so that even a run of one
# iteration reports a median set-up time.
SETUP_REPEATS = 3
# Import probes per run at the least. One probe runs before each iteration, so
# that the probes sample the machine over the whole run, as the iterations do;
# a run with fewer iterations makes up the rest at its end.
IMPORT_PROBES = 9


# Every end-to-end figure, with its unit, for the human-readable lines. The
# JSON carries the ones defined and nonzero on every workload (see README.md).
REPORTED = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("records_per_s", "1/s"),
    ("backend_calls_per_record", "calls"),
    ("cpu_ms_per_call", "ms"),
    ("cpu_ms_per_record", "ms"),
    ("slot_utilization", "ratio"),
    ("peak_rss_mb", "MB"),
    ("failed_share", "ratio"),
    ("ok_share", "ratio"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        tv = import_library()
        import_times = [import_seconds()]
    except (ImportError, subprocess.SubprocessError) as err:
        print(f"perfbench: cannot import tagevol from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    job = WORKLOADS[args.workload](tv, work, args.seed)
    plain, traced, two_slot = [], [], []
    tracer = None
    attempted = failed = 0
    error = None
    try:
        job.prepare()
        started = time.perf_counter()
        last = 0.0
        index = 0
        while True:
            begun = time.perf_counter()
            if index:
                import_times.append(import_seconds())
            attempted += 1
            plain.append(iterate(job, index))
            index += 1
            if args.trace:
                attempted += 1
                tracer = Tracer()
                traced.append(iterate(job, index, tracer))
                index += 1
                if job.slots == 1:
                    # The same job on two slots: what contention for the interpreter lock costs.
                    attempted += 1
                    job.slots = 2
                    try:
                        two_slot.append(iterate(job, index))
                    finally:
                        job.slots = 1
                    index += 1
            last = time.perf_counter() - begun
            if time.perf_counter() - started + last > args.seconds:
                break
        while len(import_times) < IMPORT_PROBES:
            import_times.append(import_seconds())
    except CheckFailed as err:
        error = f"output check failed: {err}"
    except Exception as err:  # an operation of the workload raised: report it, fail the run
        error = f"{type(err).__name__}: {err}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    if error is not None:
        failed += 1
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    import_s = statistics.median(import_times)
    summary = {
        "setup_s": import_s + statistics.median(s for row in plain for s in row["setup_s"]),
        "wall_s": median(plain, "wall_s"),
        "records_per_s": median(plain, "records_per_s"),
        "cpu_ms_per_record": median(plain, "cpu_ms_per_record"),
        "backend_calls_per_record": median(plain, "backend_calls_per_record"),
        "cpu_ms_per_call": None,  # needs the traced run's count of Gateway.complete calls
        "slot_utilization": median(plain, "slot_utilization"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": plain[0]["failed_share"],
        "ok_share": 1.0 - plain[0]["failed_share"],
    }
    if args.trace:
        # Gateway.complete calls per iteration: a deterministic count, taken from the traced spans.
        calls = sum(1 for s in tracer.spans if s.name == "gateway.complete")
        if calls:
            summary["cpu_ms_per_call"] = 1e3 * median(plain, "cpu_s") / calls
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced iterations, "
          f"{plain[0]['accepted']} output records each, import {import_s:.4f} s (median of {len(import_times)})")
    for name, unit in REPORTED:
        value = summary[name]
        print(f"  {name:<26} {'n/a' if value is None else f'{value:.6g}'} {unit}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.trace:
        metrics = {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        layers = [row["layers"] for row in traced]
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        per_layer["gateway.backend_calls_per_record"] = summary["backend_calls_per_record"]
        per_layer["gateway.cpu_ms_per_call"] = summary["cpu_ms_per_call"] or 0.0
        per_layer["gateway.slot_utilization"] = summary["slot_utilization"]
        per_layer["gateway.cpu_ms_per_call_2_slots"] = (
            1e3 * median(two_slot, "cpu_s") / calls if two_slot else per_layer["gateway.cpu_ms_per_call"]
        )
        per_layer["trace.overhead_s"] = median(traced, "wall_s") - summary["wall_s"]
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.jsonl")
        print(f"  traced wall_s {median(traced, 'wall_s'):.6g} s over {len(traced)} traced iterations; "
              f"tracing overhead {per_layer['trace.overhead_s']:.6g} s")
        print("  owned self time by span, last traced iteration (ms wall, ms CPU):")
        for name, (wall, cpu) in sorted(owned_self_times(tracer.spans).items(), key=lambda kv: -kv[1][1])[:12]:
            print(f"    {name:<40} {wall:10.2f} {cpu:10.2f}")
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for name, entry in metrics.items():
            print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
