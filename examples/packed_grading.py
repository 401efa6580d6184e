#!/usr/bin/env python3
"""Fault-parallel gross-delay grading of a random sequence on s27.

Grading asks: which gate delay faults would this input sequence detect?  The
reference backend answers by replaying the whole sequence once per fault; the
packed backend answers in one bit-parallel sweep — the good machine rides in
pattern slot 0 and each remaining slot carries one faulty machine whose fault
line is frozen at its stale value in the fast frame
(:func:`repro.core.verify.grade_test_sequence`).

The script grades one random sequence against the complete s27 fault
universe with both backends, checks the verdicts are identical, and prints
the timing comparison (on the tiny s27 the packed win is modest; the
``benchmarks/test_bench_packed_grading.py`` gate measures the s838-sized
workload where it exceeds 5x).

Run with::

    python examples/packed_grading.py
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import load_circuit
from repro.core.clocking import ClockSchedule
from repro.core.results import TestSequence
from repro.core.verify import grade_test_sequence
from repro.faults.model import enumerate_delay_faults

SEQUENCE_FRAMES = 10
REPEATS = 20  # timing repetitions; s27 grades in microseconds


def build_random_sequence(circuit, rng: random.Random) -> TestSequence:
    """A random vector sequence with the fast (test) frame in the middle."""
    vectors = [
        {pi: rng.randint(0, 1) for pi in circuit.primary_inputs}
        for _ in range(SEQUENCE_FRAMES)
    ]
    fast_index = SEQUENCE_FRAMES // 2
    schedule = ClockSchedule.for_sequence(
        initialization_frames=fast_index - 1,
        propagation_frames=SEQUENCE_FRAMES - fast_index - 1,
    )
    faults = enumerate_delay_faults(circuit)
    return TestSequence(
        fault=faults[0],
        initialization_vectors=vectors[: fast_index - 1],
        v1=vectors[fast_index - 1],
        v2=vectors[fast_index],
        propagation_vectors=vectors[fast_index + 1 :],
        clock_schedule=schedule,
        observation_point="",
        observed_at_po=True,
    )


def time_backend(circuit, sequence, faults, backend: str):
    """Grade REPEATS times and return (grades, seconds per grading pass)."""
    grades = grade_test_sequence(circuit, sequence, faults, backend=backend)
    start = time.perf_counter()
    for _ in range(REPEATS):
        grade_test_sequence(circuit, sequence, faults, backend=backend)
    return grades, (time.perf_counter() - start) / REPEATS


def main() -> int:
    circuit = load_circuit("s27")
    rng = random.Random(7)
    sequence = build_random_sequence(circuit, rng)
    faults = enumerate_delay_faults(circuit)
    print(
        f"Grading a {SEQUENCE_FRAMES}-frame random sequence against "
        f"{len(faults)} faults on {circuit.name} "
        f"(fast frame at index {sequence.clock_schedule.fast_frame_index})\n"
    )

    reference, reference_s = time_backend(circuit, sequence, faults, "reference")
    packed, packed_s = time_backend(circuit, sequence, faults, "packed")

    mismatches = [
        (ref.fault, ref.detected, got.detected)
        for ref, got in zip(reference, packed)
        if (ref.detected, ref.detection_frame, ref.primary_output)
        != (got.detected, got.detection_frame, got.primary_output)
    ]
    assert not mismatches, f"backends disagree: {mismatches[:3]}"

    detected = [grade for grade in packed if grade.detected]
    print(f"{'backend':>10} {'time/pass':>12} {'sweeps':>8}")
    print(f"{'reference':>10} {reference_s * 1e3:>10.2f}ms {len(faults):>8}")
    print(f"{'packed':>10} {packed_s * 1e3:>10.2f}ms {1:>8}")
    print(f"\nspeedup: {reference_s / packed_s:.1f}x, identical verdicts")
    print(f"\ndetected {len(detected)}/{len(faults)} faults, e.g.:")
    for grade in detected[:8]:
        print(
            f"  {str(grade.fault):<16} at frame {grade.detection_frame} "
            f"via {grade.primary_output}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
