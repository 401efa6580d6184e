"""The single campaign entry point: :func:`repro.orchestrate.campaign.run_campaign`.

Every path it dispatches to (serial, orchestrated, journaled, incremental)
credits faults through the same loop, so on the same circuit and settings
they must return the same fingerprint, and each must hand back one cost
record per credited target when metrics are on.
"""

from __future__ import annotations

import pytest

from repro.data import load_circuit
from repro.obs.metrics import MetricsRegistry
from repro.orchestrate import OrchestratorConfig
from repro.orchestrate.campaign import run_campaign, validate_campaign
from repro.store import CampaignStore

CAP = 12


def _config(**overrides) -> OrchestratorConfig:
    settings = {"jobs": 1, "local_backtrack_limit": 20, "sequential_backtrack_limit": 20}
    settings.update(overrides)
    return OrchestratorConfig(**settings)


def test_every_path_gives_the_serial_campaign(tmp_path):
    circuit = load_circuit("s27")
    serial = run_campaign(circuit, _config(), max_target_faults=CAP, metrics=MetricsRegistry())
    assert serial.shard_stats == [] and serial.incremental is None
    assert len(serial.costs) == serial.result.targeted

    sharded = run_campaign(
        circuit, _config(jobs=2), max_target_faults=CAP, metrics=MetricsRegistry()
    )
    assert [stats["worker"] for stats in sharded.shard_stats] == [0, 1]
    journaled = run_campaign(
        circuit, _config(), max_target_faults=CAP,
        journal_path=str(tmp_path / "c.jsonl"),
    )
    store_path = str(tmp_path / "s.sqlite")
    with CampaignStore(store_path) as store:
        store.ingest_result(serial.result, circuit=circuit, config=_config(), costs=serial.costs)
    incremental = run_campaign(
        circuit, _config(), max_target_faults=CAP, incremental_from=store_path,
        metrics=MetricsRegistry(),
    )
    assert incremental.incremental["reused"] == serial.result.targeted

    for run in (sharded, journaled, incremental):
        assert run.result.fingerprint() == serial.result.fingerprint()
    for run in (sharded, incremental):
        assert [cost.fault for cost in run.costs] == [cost.fault for cost in serial.costs]


def test_time_limited_run_keeps_costs():
    run = run_campaign(
        load_circuit("s27"), _config(), time_limit_s=60.0, metrics=MetricsRegistry()
    )
    assert run.result.targeted > 0
    assert len(run.costs) == run.result.targeted


@pytest.mark.parametrize(
    "config, settings, message",
    [
        (_config(jobs=0), {}, "'jobs' must be >= 1"),
        (_config(sequential_backtrack_limit=0), {}, "'backtrack_limit' must be >= 1"),
        (_config(), {"max_target_faults": 0}, "'max_target_faults' must be >= 1"),
        (_config(), {"time_limit_s": 0.0}, "'time_limit_s' must be > 0"),
        (_config(partition="nope"), {}, "unknown partition mode"),
        (_config(backend="bigint"), {}, "unknown backend"),
        (_config(), {"resume": True}, "resume requires a journal path"),
        (_config(jobs=2), {"time_limit_s": 1.0}, "requires 'jobs' == 1"),
        (_config(), {"time_limit_s": 1.0, "journal_path": "j"}, "not supported with 'journal'"),
        (
            _config(rpg_prefix=True), {"incremental_from": "s"},
            "'incremental_from' is not supported with 'rpg_prefix'",
        ),
    ],
)
def test_validator_messages(config, settings, message):
    with pytest.raises(ValueError) as info:
        validate_campaign(config, json_fields=True, **settings)
    assert message in str(info.value)
    with pytest.raises(ValueError):
        run_campaign(load_circuit("s27"), config, **settings)
