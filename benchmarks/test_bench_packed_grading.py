"""Fault-parallel gross-delay grading vs the per-fault reference replay.

Grading a candidate sequence against the whole fault list is the dominant
cost of the random baseline and of any pattern-reuse strategy: the reference
path replays the full sequence once per fault, while the packed path grades
every faulty machine next to the shared good machine in one bit-parallel
sweep (:func:`repro.core.verify.grade_test_sequence`).

``test_bench_packed_grading_speedup`` is the acceptance gate of the
fault-parallel rewrite: at least a 5x speedup on the s838 surrogate grading
workload, with verdict-identical results.
"""

from __future__ import annotations

import random
import time

import pytest

from benchconfig import write_bench_results
from repro.core.clocking import ClockSchedule
from repro.core.results import TestSequence
from repro.core.verify import grade_test_sequence
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults, sample_faults

#: Benchmark workload: one random sequence of F frames graded against N faults.
N_FRAMES = 12
N_FAULTS = 256


@pytest.fixture(scope="module")
def workload():
    circuit = load_circuit("s838", scale=0.5, seed=0)
    rng = random.Random(3)
    vectors = [
        {pi: rng.randint(0, 1) for pi in circuit.primary_inputs} for _ in range(N_FRAMES)
    ]
    fast_index = N_FRAMES // 2
    schedule = ClockSchedule.for_sequence(
        initialization_frames=fast_index - 1,
        propagation_frames=N_FRAMES - fast_index - 1,
    )
    faults = sample_faults(enumerate_delay_faults(circuit), N_FAULTS)
    sequence = TestSequence(
        fault=faults[0],
        initialization_vectors=vectors[: fast_index - 1],
        v1=vectors[fast_index - 1],
        v2=vectors[fast_index],
        propagation_vectors=vectors[fast_index + 1 :],
        clock_schedule=schedule,
        observation_point="",
        observed_at_po=True,
    )
    return circuit, sequence, faults


def _verdicts(grades):
    return [
        (grade.detected, grade.detection_frame, grade.primary_output)
        for grade in grades
    ]


def test_bench_grading_reference(benchmark, workload):
    circuit, sequence, faults = workload
    grades = benchmark(grade_test_sequence, circuit, sequence, faults, "reference")
    assert len(grades) == len(faults)


def test_bench_grading_packed(benchmark, workload):
    circuit, sequence, faults = workload
    grades = benchmark(grade_test_sequence, circuit, sequence, faults, "packed")
    assert len(grades) == len(faults)


def test_bench_packed_grading_speedup(workload):
    """Acceptance: packed grading >= 5x faster than reference, identical."""
    circuit, sequence, faults = workload

    start = time.perf_counter()
    reference = grade_test_sequence(circuit, sequence, faults, backend="reference")
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    packed = grade_test_sequence(circuit, sequence, faults, backend="packed")
    packed_seconds = time.perf_counter() - start

    assert _verdicts(packed) == _verdicts(reference)

    speedup = reference_seconds / packed_seconds
    detected = sum(1 for grade in packed if grade.detected)
    print(
        f"\npacked grading: {reference_seconds:.3f}s -> {packed_seconds:.3f}s "
        f"({speedup:.1f}x, {len(faults)} faults x {N_FRAMES} frames on "
        f"{circuit.name}, {detected} detected)"
    )
    write_bench_results(
        "packed_grading",
        {
            "workload": {
                "circuit": circuit.name,
                "n_faults": len(faults),
                "n_frames": N_FRAMES,
                "description": "grade_test_sequence, packed vs reference replay",
            },
            "reference_seconds": round(reference_seconds, 6),
            "packed_seconds": round(packed_seconds, 6),
            "speedup": round(speedup, 2),
            "gate": 5.0,
        },
    )
    assert speedup >= 5.0, (
        f"packed grading only {speedup:.1f}x faster than reference "
        f"({reference_seconds:.3f}s vs {packed_seconds:.3f}s)"
    )
