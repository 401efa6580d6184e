"""Campaign equivalence of the two backend tiers: reference vs packed.

The acceptance contract of the compiled tier is that ``--backend packed``
produces **bit-identical campaign results** to the ``reference`` interpreter
oracle — same Table 3 row, same per-fault verdicts, same sequences, same
detection credits — on the embedded s27 and on a surrogate circuit.  (The
random-circuit population is covered by ``tests/fuzz``; this file pins the
end-to-end ATPG flow, which additionally exercises the two-frame simulator,
the implication engines and the search kernels the backend name resolves.)
"""

from __future__ import annotations

from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults


def _fingerprint(campaign):
    """Everything the bit-identical contract covers, minus wall time."""
    row = {
        key: value
        for key, value in campaign.as_table3_row().items()
        if key != "time_s"
    }
    per_fault = [
        (
            str(result.fault),
            result.status.value,
            result.phase.name,
            sorted(str(fault) for fault in result.additionally_detected),
            result.sequence.vectors if result.sequence is not None else None,
            str(result.sequence.clock_schedule)
            if result.sequence is not None
            else None,
        )
        for result in campaign.fault_results
    ]
    return (
        row,
        campaign.untestable_breakdown(),
        campaign.targeted,
        campaign.detected_by_simulation,
        per_fault,
    )


def test_s27_campaign_bit_identical(s27):
    packed = SequentialDelayATPG(s27, backend="packed").run()
    reference = SequentialDelayATPG(s27, backend="reference").run()
    assert _fingerprint(reference) == _fingerprint(packed)


def test_surrogate_campaign_bit_identical():
    circuit = load_circuit("s344", scale=0.3)
    subset = enumerate_delay_faults(circuit)[:40]
    packed = SequentialDelayATPG(circuit, backend="packed").run(faults=subset)
    reference = SequentialDelayATPG(circuit, backend="reference").run(faults=subset)
    assert _fingerprint(reference) == _fingerprint(packed)
