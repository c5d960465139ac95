"""The benchmark workloads' seed-1 outputs are pinned: a change that alters any
artifact byte fails here, not only in a benchmark run."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import tagevol
import tagevol.cli  # noqa: F401  (loads every submodule the workloads call, as perfbench/run.py does)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Prefixes of ``workloads.output_digest`` over each workload's output tree at seed 1.
PINNED = {
    "evolve-cpu": "db27652e",
    "pipeline-latency": "367a300f",
    "resume": "4d0f508c",
    "audit": "2f1243ec",
}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its siblings by bare name
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seed_1_outputs_keep_their_pinned_digest(name, workloads, tmp_path):
    job = workloads.WORKLOADS[name](tagevol, tmp_path / "work", 1)
    job.prepare()  # pipeline-latency and resume make their zero-latency reference run here
    if job.reference is None:
        it_dir = tmp_path / "it0"
        job.fresh(it_dir)
        job.check(job.run(job.setup(it_dir)), first=True)
    assert job.reference[: len(PINNED[name])] == PINNED[name]
