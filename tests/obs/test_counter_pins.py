"""Pinned totals of the implication work counters on fixed campaigns.

The per-fault cost records (and the store rows built from them) carry the
implication sweep and wavefront counts, so a change to the set-propagation
kernel must leave them exactly where they are: same sweeps, same gates
evaluated, same gates skipped off the change wavefront.  The totals below
were recorded with the eight-plane set encoding the byte-word kernel
replaced.
"""

from __future__ import annotations

import pytest

from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.obs.metrics import MetricsRegistry

EVALUATED = "repro_wavefront_gates_evaluated_total"
SKIPPED = "repro_wavefront_gates_skipped_total"
SWEEPS = "repro_implication_sweeps_total"


def _totals(circuit, max_target_faults=None, **kwargs):
    registry = MetricsRegistry()
    atpg = SequentialDelayATPG(circuit, metrics=registry, backend="packed", **kwargs)
    atpg.run(max_target_faults=max_target_faults)
    totals = {name: int(registry.counter_sum(name)) for name in (EVALUATED, SKIPPED, SWEEPS)}
    # The per-fault cost records carry the same sweep and skip counts.
    assert sum(cost.implication_sweeps for cost in atpg.cost_log) == totals[SWEEPS]
    assert sum(cost.wavefront_skipped for cost in atpg.cost_log) == totals[SKIPPED]
    return totals


@pytest.mark.parametrize(
    "robust, expected",
    [
        (True, {EVALUATED: 5004, SKIPPED: 421, SWEEPS: 1336}),
        (False, {EVALUATED: 5629, SKIPPED: 578, SWEEPS: 1341}),
    ],
)
def test_s27_campaign_counters(s27, robust, expected):
    assert _totals(s27, robust=robust) == expected


def test_capped_s641_campaign_counters():
    circuit = load_circuit("s641", scale=0.5)
    assert _totals(circuit, max_target_faults=30) == {
        EVALUATED: 43110,
        SKIPPED: 32570,
        SWEEPS: 596,
    }
