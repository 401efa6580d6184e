"""One way to run a campaign: the validator and the dispatcher.

The CLI and the daemon both hand their settings to :func:`run_campaign`.
:func:`validate_campaign` is the one place settings are range-checked and
flag combinations refused (``docs/ARCHITECTURE.md`` lists the rules).  The
three paths it dispatches to (incremental, orchestrated, serial) credit
faults through the same loop, :func:`repro.core.flow.credit_campaign`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.circuit.netlist import Circuit
from repro.core.flow import SequentialDelayATPG
from repro.core.results import CampaignResult
from repro.fausim.backends import available_backends
from repro.obs.tracing import FaultCost
from repro.orchestrate.coordinator import CampaignOrchestrator, OrchestratorConfig
from repro.orchestrate.partition import PARTITION_MODES

#: CLI flags that are not ``--`` plus the field name with dashes.
_FLAGS = {
    "max_target_faults": "--max-faults",
    "time_limit_s": "--time-limit",
    "journal": "--journal/--resume",
}


def validate_campaign(
    config: OrchestratorConfig,
    *,
    max_target_faults: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    incremental_from: Optional[str] = None,
    json_fields: bool = False,
) -> None:
    """Refuse out-of-range settings and conflicting flags with a ValueError.

    A time limit needs a serial, unjournaled run: its partial result depends
    on wall time, so it can be neither sharded nor resumed.  An incremental
    re-run is the serial loop with a store-backed memo, so it refuses what
    reshapes that loop: ``jobs`` > 1, the random prefix, a journal, a time
    limit.  Messages name CLI flags, or ``POST /jobs`` fields with
    ``json_fields``.
    """

    def name(key: str) -> str:
        if json_fields:
            return f"'{key}'"
        return _FLAGS.get(key, "--" + key.replace("_", "-"))

    minimums = [
        ("jobs", config.jobs),
        ("backtrack_limit", min(config.local_backtrack_limit, config.sequential_backtrack_limit)),
        ("rpg_budget", config.rpg_budget),
        ("rpg_window", config.rpg_window),
    ]
    if max_target_faults is not None:
        minimums.append(("max_target_faults", max_target_faults))
    for key, value in minimums:
        if value < 1:
            raise ValueError(f"{name(key)} must be >= 1")
    if time_limit_s is not None and not time_limit_s > 0:
        raise ValueError(f"{name('time_limit_s')} must be > 0")
    if config.partition not in PARTITION_MODES:
        raise ValueError(f"unknown partition mode {config.partition!r}; known: {PARTITION_MODES}")
    if config.backend is not None and config.backend not in available_backends():
        known = ", ".join(sorted(available_backends()))
        raise ValueError(f"unknown backend {config.backend!r}; known: {known}")
    if resume and journal_path is None:
        raise ValueError("resume requires a journal path")
    if incremental_from is not None:
        for key, active in (
            ("jobs", config.jobs > 1),
            ("rpg_prefix", config.rpg_prefix),
            ("journal", journal_path is not None),
            ("time_limit_s", time_limit_s is not None),
        ):
            if active:
                suffix = " > 1" if key == "jobs" else ""
                raise ValueError(
                    f"{name('incremental_from')} is not supported with {name(key)}{suffix}"
                )
    if time_limit_s is not None and config.jobs > 1:
        raise ValueError(
            f"{name('time_limit_s')} requires {name('jobs')} == 1 (a "
            "time-limited campaign runs serially and is not resumable)"
        )
    if time_limit_s is not None and journal_path is not None:
        raise ValueError(
            f"{name('time_limit_s')} is not supported with {name('journal')} "
            "(a time-limited campaign is not resumable)"
        )


@dataclasses.dataclass
class CampaignRun:
    """One finished campaign plus what callers print or store beside it."""

    result: CampaignResult
    #: Credited per-fault cost records (empty with metrics off).
    costs: List[FaultCost]
    #: Per-worker summaries and replay recomputes of an orchestrated run.
    shard_stats: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    recomputed: int = 0
    #: The reuse summary of an incremental re-run.
    incremental: Optional[Dict[str, object]] = None


def run_campaign(
    circuit: Circuit,
    config: OrchestratorConfig,
    *,
    max_target_faults: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    incremental_from: Optional[str] = None,
    on_record=None,
    should_stop=None,
    metrics=None,
) -> CampaignRun:
    """Validate the settings, then run one circuit's campaign on its path.

    ``incremental_from`` (a store path) runs :func:`repro.store.run_incremental`;
    ``jobs`` > 1 or a journal runs the
    :class:`~repro.orchestrate.coordinator.CampaignOrchestrator`, which alone
    uses the ``on_record``/``should_stop`` hooks; anything else runs the
    serial :meth:`~repro.core.flow.SequentialDelayATPG.run`.
    """
    validate_campaign(
        config,
        max_target_faults=max_target_faults,
        time_limit_s=time_limit_s,
        journal_path=journal_path,
        resume=resume,
        incremental_from=incremental_from,
    )
    if incremental_from is not None:
        from repro.store import CampaignStore, run_incremental

        with CampaignStore(incremental_from) as store:
            outcome = run_incremental(
                circuit, store, config, max_target_faults=max_target_faults, metrics=metrics
            )
        return CampaignRun(outcome.result, outcome.costs, incremental=outcome.summary())
    if config.jobs > 1 or journal_path is not None:
        orchestrator = CampaignOrchestrator(
            circuit, config, journal_path, resume, on_record, should_stop, metrics
        )
        result = orchestrator.run(max_target_faults=max_target_faults)
        return CampaignRun(
            result, orchestrator.fault_costs, orchestrator.shard_stats, orchestrator.recomputed
        )
    atpg = SequentialDelayATPG(circuit, metrics=metrics, **config.atpg_kwargs())
    result = atpg.run(
        max_target_faults=max_target_faults,
        time_limit_s=time_limit_s,
        prefix=config.prefix_config(),
    )
    return CampaignRun(result, atpg.cost_log)
