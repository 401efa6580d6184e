"""Two traced passes of one sub-seed must agree bit for bit.

Each workload runs two traced passes (fresh processes, as in a benchmark
run) with the same sub-seed; their campaign digests and exact per-layer
counts must be identical, and neither may report a failure.  Takes a
couple of minutes: ``python3 -m pytest perfbench/tests``.
"""

import os
import shutil
import time

import pytest

from paths import OUT
from run import COUNT_METRICS, WORKLOAD_NAMES, Runner, pooled_layers
from workloads import WORKLOADS

SUB_SEED = 3


def traced_passes(workload):
    work_dir = os.path.join(OUT, "test-determinism", workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(work_dir, time.monotonic())
    shared = None
    if hasattr(WORKLOADS[workload], "prepare"):
        _, shared = runner.prepare(workload)
    return [runner.launch(workload, SUB_SEED, trace=1, shared=shared) for _ in range(2)]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_sub_seed_same_digests_and_counts(workload):
    first, second = traced_passes(workload)
    for record in (first, second):
        assert record["errors"] == [] and record["traced"] and record["campaigns"]
    digests = [[(c["label"], c["digest"]) for c in r["campaigns"]] for r in (first, second)]
    assert digests[0] == digests[1]
    counts = [
        {k: v for k, v in pooled_layers([r]).items() if k in COUNT_METRICS}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
