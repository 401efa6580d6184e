"""The ``bigint`` kernel tier: unbounded-width integer planes.

The ``packed`` tier chops every batch into 64-bit machine words and pays one
full pass over the compiled gate program *per word* — for a grading call with
a thousand faulty machines that is sixteen interpreter sweeps whose per-gate
Python overhead (loop iteration, list indexing, dict lookups) dominates the
actual bitwise work.  Python integers, however, are arbitrary-precision: the
very same plane identities (`one = AND(one_i)`, the one-hot eight-plane table
walk) run unchanged on integers of *any* width.

This module therefore does not reimplement anything.  It re-registers the
packed evaluators with an effectively unbounded word width, so one gate
evaluation covers the **entire** pattern / fault / candidate population in a
single big-integer operation and the per-gate interpretation overhead is paid
once per batch instead of once per 64 patterns.  CPython's bignum arithmetic
is word-serial internally, but it runs in C — the Python-level loop count per
gate drops from ``ceil(width / 64)`` to 1.

The tier is exact by construction (same code paths, wider integers); the
differential fuzz harness in ``tests/fuzz`` and the corpus regression suite
still pin it bit-for-bit against ``packed`` and ``reference`` at every
dispatch layer.
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.fausim.packed_sim import PackedLogicSimulator
from repro.fausim.packed_two_frame import PackedTwoFrameSimulator

#: The "unbounded" word width of the bigint tier.  Any batch a process can
#: hold fits in one chunk; the value only bounds the *chunking* loops, never
#: an allocated mask (masks are sized by the actual batch width).
BIGINT_WORD_BITS = 1 << 62


class BigintLogicSimulator(PackedLogicSimulator):
    """Three-valued plane simulator with one unbounded word per signal.

    A drop-in :class:`~repro.fausim.packed_sim.PackedLogicSimulator` whose
    chunk width is effectively infinite: ``combinational_batch`` /
    ``sequence_batch`` / the fault-parallel grading of
    :mod:`repro.core.verify` run one single pass over the gate program no
    matter how many patterns or faulty machines the batch holds.
    """

    def __init__(self, circuit: Circuit) -> None:
        super().__init__(circuit, word_bits=BIGINT_WORD_BITS)


class BigintTwoFrameSimulator(PackedTwoFrameSimulator):
    """Eight-valued two-frame simulator with one unbounded word per signal.

    The fault-parallel counterpart for TDsim's exact stem analysis and PPO
    confirmation: every injection of a candidate batch lands in its own slot
    of a single arbitrary-width integer plane, so one pass simulates the
    whole batch regardless of its size.
    """

    def __init__(self, circuit: Circuit, robust: bool = True) -> None:
        super().__init__(circuit, robust=robust, word_bits=BIGINT_WORD_BITS)
