"""The benchmark's workloads.

Each workload runs in *passes*; every pass is a fresh process
(``passproc.py``) that sets up, runs one timed unit and checks its
outputs.  A pass is identified by its sub-seed; a run of seed ``s`` cycles
through the sub-seeds ``s * CYCLE + i`` for ``i < CYCLE``, so a fixed set
of inputs is measured on every run of that seed and a repeated sub-seed
must reproduce its digests exactly.

The surrogate netlists are fixed; the seed drives only the generated
inputs (fault order, prefix seed, job mix, edits).  No workload passes a
``backend``: the program's default is used and recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from typing import Dict, List

from repro.circuit.gates import GateType
from repro.core.flow import SequentialDelayATPG
from repro.core.prefilter import PrefixConfig
from repro.core.results import CampaignResult, FaultResultStatus
from repro.core.verify import verify_test_sequence
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults
from repro.fausim.compile import compile_circuit
from repro.orchestrate import OrchestratorConfig
from repro.store import CampaignStore, incremental
from svc import Daemon

def digest(campaign: CampaignResult) -> str:
    """sha256 of the campaign's fingerprint (its timing-free JSON view)."""
    blob = json.dumps(campaign.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def summary(label: str, campaign: CampaignResult) -> Dict[str, object]:
    """Table-3 counts of one campaign plus its digest."""
    return {
        "label": label,
        "digest": digest(campaign),
        "total": campaign.total_faults,
        "tested": campaign.tested,
        "untestable": campaign.untestable,
        "aborted": campaign.aborted,
        "aborted_targets": sum(
            1 for r in campaign.fault_results if r.status is FaultResultStatus.ABORTED
        ),
        "targeted": campaign.targeted,
        "patterns": campaign.pattern_count,
    }


def count_errors(label: str, campaign: CampaignResult) -> List[str]:
    """Table-3 columns must add up to the fault universe."""
    total = campaign.tested + campaign.untestable + campaign.aborted
    if total != campaign.total_faults:
        return [f"{label}: tested+untestable+aborted={total} != {campaign.total_faults}"]
    return []


def verify_errors(label: str, circuit, campaign: CampaignResult) -> List[str]:
    """Every credited deterministic sequence must detect its fault."""
    errors = []
    for result in campaign.fault_results:
        if result.tested and not verify_test_sequence(circuit, result.sequence).detected:
            errors.append(f"{label}: sequence for {result.fault} fails verification")
    return errors


class Workload:
    """One pass: ``setup`` (untimed), ``unit`` (timed), ``check``."""

    name = ""
    CYCLE = 4

    def __init__(self, sub_seed: int, shared: Dict[str, object], work_dir: str) -> None:
        self.sub_seed = sub_seed
        self.shared = shared
        self.work_dir = work_dir
        self.campaigns: List[Dict[str, object]] = []
        self.requests: List[float] = []
        self.errors: List[str] = []
        self.attempted = 0

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Output checks, run after the timed unit; failures go to ``errors``."""

    def extras(self, recorder) -> Dict[str, float]:
        """Additive per-layer numbers a traced pass adds after its unit."""
        return {}

    def close(self) -> None:
        """Stop the daemon, if the pass started one; called even after a failure."""
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.stop()


class DetRobust(Workload):
    """Serial robust campaign, paper limits, fixed fault set in seeded order."""

    name = "det_robust"
    CIRCUIT, SCALE, SURROGATE_SEED = "s641", 0.5, 0
    #: Every STRIDE-th fault of the enumeration (148 of 1180 faults).
    STRIDE = 8

    def setup(self) -> None:
        self.circuit = load_circuit(self.CIRCUIT, scale=self.SCALE, seed=self.SURROGATE_SEED)
        universe = enumerate_delay_faults(self.circuit)
        self.faults = universe[:: self.STRIDE]
        if self.sub_seed:
            random.Random(self.sub_seed).shuffle(self.faults)
        self.atpg = SequentialDelayATPG(self.circuit)
        # Fill the memo tables on faults outside the measured set.
        for fault in universe[1 :: self.STRIDE][:3]:
            self.atpg.generate_for_fault(fault)

    def unit(self) -> None:
        start = time.perf_counter()
        self.result = self.atpg.run(faults=self.faults)
        self.requests.append(time.perf_counter() - start)
        self.attempted += 1

    def check(self) -> None:
        label = f"{self.name}/{self.sub_seed}"
        self.campaigns.append(summary(label, self.result))
        self.errors += count_errors(label, self.result)
        self.errors += verify_errors(label, self.circuit, self.result)


class HybridNonRobust(Workload):
    """Serial non-robust campaign behind a fixed-length random prefix."""

    name = "hybrid_nonrobust"
    CIRCUIT, SCALE, SURROGATE_SEED = "s838", 0.5, 53
    BACKTRACK_LIMIT = 20
    #: Prefix length; the window equals the budget so every seed applies
    #: exactly this many sequences (the adaptive stop would vary the work).
    PREFIX = 48
    RESIDUE_TARGETS = 10

    def setup(self) -> None:
        self.circuit = load_circuit(self.CIRCUIT, scale=self.SCALE, seed=self.SURROGATE_SEED)
        self.atpg = SequentialDelayATPG(
            self.circuit,
            robust=False,
            local_backtrack_limit=self.BACKTRACK_LIMIT,
            sequential_backtrack_limit=self.BACKTRACK_LIMIT,
        )
        warm = enumerate_delay_faults(self.circuit)[:16]
        self.atpg.run(faults=warm, max_target_faults=2,
                      prefix=PrefixConfig(budget=2, window=2, seed=-1))

    def unit(self) -> None:
        prefix = PrefixConfig(budget=self.PREFIX, window=self.PREFIX, seed=self.sub_seed)
        start = time.perf_counter()
        self.result = self.atpg.run(max_target_faults=self.RESIDUE_TARGETS, prefix=prefix)
        self.requests.append(time.perf_counter() - start)
        self.attempted += 1

    def check(self) -> None:
        label = f"{self.name}/{self.sub_seed}"
        self.campaigns.append(summary(label, self.result))
        self.errors += count_errors(label, self.result)
        self.errors += verify_errors(label, self.circuit, self.result)
        if self.result.prefix_applied != self.PREFIX:
            self.errors.append(f"{label}: prefix applied {self.result.prefix_applied}")


class EcoIncremental(Workload):
    """Store ingest plus cumulative observability edits, each re-run incrementally.

    The sub-seed pairs up the shuffled primary inputs, one edit per pair, so
    every pass touches each input once: the edits' order and pairing vary,
    the set of invalidated faults barely does.
    """

    name = "eco_incremental"
    CYCLE = 3
    CIRCUIT, SCALE, SURROGATE_SEED = DetRobust.CIRCUIT, DetRobust.SCALE, DetRobust.SURROGATE_SEED
    #: Target cap of the base campaign and of every incremental re-run.
    TARGETS = 100

    @classmethod
    def prepare(cls, work_dir: str) -> Dict[str, object]:
        """The base campaign, computed once per run (part of ``setup_s``)."""
        circuit = load_circuit(cls.CIRCUIT, scale=cls.SCALE, seed=cls.SURROGATE_SEED)
        config = OrchestratorConfig(jobs=1)
        base = SequentialDelayATPG(circuit, **config.atpg_kwargs()).run(
            max_target_faults=cls.TARGETS
        )
        path = os.path.join(work_dir, "eco-base.json")
        with open(path, "w") as handle:
            json.dump(base.to_json(), handle)
        label = f"{cls.name}/base"
        return {"base": path, "campaigns": [summary(label, base)],
                "errors": count_errors(label, base), "attempted": 1}

    def edited(self, count: int):
        """The base netlist plus the first ``count`` seeded observer gates."""
        circuit = load_circuit(self.CIRCUIT, scale=self.SCALE, seed=self.SURROGATE_SEED)
        for index, (a, b) in enumerate(self.pairs[:count]):
            circuit.add_gate(f"eco_{index}", GateType.AND, [a, b])
            circuit.add_output(f"eco_{index}")
        return circuit

    def setup(self) -> None:
        self.config = OrchestratorConfig(jobs=1)
        with open(self.shared["base"]) as handle:
            self.base = CampaignResult.from_json(json.load(handle))
        self.base_circuit = load_circuit(self.CIRCUIT, scale=self.SCALE, seed=self.SURROGATE_SEED)
        compile_circuit(self.base_circuit)
        rng = random.Random(f"{self.name}:{self.sub_seed}")
        pis = list(self.base_circuit.primary_inputs)
        rng.shuffle(pis)
        self.pairs = list(zip(pis[0::2], pis[1::2]))
        # The edited netlists are built here but left uncompiled: compiling
        # and diffing them is the incremental engine's work.
        self.circuits = [self.edited(k + 1) for k in range(len(self.pairs))]
        self.store_path = os.path.join(self.work_dir, f"eco-{self.sub_seed}.sqlite")

    def unit(self) -> None:
        if os.path.exists(self.store_path):
            os.remove(self.store_path)
        self.outcomes = []
        with CampaignStore(self.store_path) as store:
            store.ingest_result(self.base, circuit=self.base_circuit, config=self.config)
            for circuit in self.circuits:
                start = time.perf_counter()
                outcome = incremental.run_incremental(
                    circuit, store, self.config, max_target_faults=self.TARGETS
                )
                store.ingest_result(outcome.result, circuit=circuit, config=self.config)
                self.requests.append(time.perf_counter() - start)
                self.outcomes.append(outcome)
                self.attempted += 1

    def check(self) -> None:
        for index, outcome in enumerate(self.outcomes):
            label = f"{self.name}/{self.sub_seed}/edit{index}"
            self.campaigns.append(summary(label, outcome.result))
            self.errors += count_errors(label, outcome.result)
            if outcome.kept + outcome.invalidated != outcome.result.total_faults:
                self.errors.append(f"{label}: kept+invalidated != total")

    def extras(self, recorder) -> Dict[str, float]:
        return {"store.db_bytes": float(os.path.getsize(self.store_path))}


class ServiceSharded(Workload):
    """A daemon answering a seeded closed-loop mix of misses and hits.

    One client, one connection at a time: each job is submitted, its event
    stream followed to EOF and its result fetched before the next one.  The
    mix always holds three result-cache misses (two ``s641@0.5`` jobs with
    different campaign seeds, so the second is a netlist-cache hit, and one
    ``s1196@0.5`` job) and ``HITS`` exact resubmissions of finished jobs,
    split evenly over the three.
    """

    name = "service_sharded"
    CYCLE = 3
    JOBS = 2
    MISSES = (("s641", 60), ("s641", 60), ("s1196", 16))
    HITS = 36

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.sub_seed}")
        seeds = rng.sample(range(1, 1 << 20), len(self.MISSES))
        misses = [
            {"circuit": circuit, "scale": 0.5, "jobs": self.JOBS,
             "max_target_faults": cap, "seed": seed}
            for (circuit, cap), seed in zip(self.MISSES, seeds)
        ]
        rng.shuffle(misses)
        self.ops = [("miss", spec) for spec in misses]
        # Every miss gets the same number of hits, each at a seeded place
        # after it: hits on different circuits differ in latency, so an
        # uneven split would move the hit median with the seed.
        for spec in misses:
            for _ in range(self.HITS // len(misses)):
                after = self.ops.index(("miss", spec))
                self.ops.insert(rng.randint(after + 1, len(self.ops)), ("hit", spec))
        self.daemon = Daemon(os.path.join(self.work_dir, f"daemon-{self.sub_seed}"))

    def unit(self) -> None:
        self.jobs = []
        for kind, spec in self.ops:
            self.attempted += 1
            job, payload, submitted, received = self.daemon.run_job(spec)
            self.requests.append(received - submitted)
            self.jobs.append((kind, spec, job, payload, submitted, received))

    def check(self) -> None:
        self.cache = self.daemon.request("GET", "/cache")
        served: Dict[str, str] = {}
        by_circuit: Dict[str, str] = {}
        for index, (kind, spec, job, payload, _, _) in enumerate(self.jobs):
            label = f"{self.name}/{self.sub_seed}/{spec['circuit']}-{spec['seed']}"
            campaign = CampaignResult.from_json(payload["campaign"])
            key = json.dumps(spec, sort_keys=True)
            if job["status"] != "done":
                self.errors.append(f"{label}: job {job['status']}")
            if payload["cache_hit"] != (kind == "hit"):
                self.errors.append(f"{label}: {kind} answered, cache_hit={payload['cache_hit']}")
            if kind == "hit":
                if digest(campaign) != served.get(key):
                    self.errors.append(f"{label}: cached result differs from the computed one")
                continue
            self.campaigns.append(summary(label, campaign))
            self.errors += count_errors(label, campaign)
            served[key] = digest(campaign)
            # The campaign seed shards the work but never changes the result.
            previous = by_circuit.setdefault(spec["circuit"], served[key])
            if previous != served[key]:
                self.errors.append(f"{label}: result depends on the campaign seed")

    def extras(self, recorder) -> Dict[str, float]:
        """Service spans from the job timestamps, then the orchestrator in-process."""
        out = {"service.queue_wait_s": 0.0, "service.run_s": 0.0, "service.delivery_s": 0.0}
        for kind, spec, job, _, submitted, received in self.jobs:
            # The job span's self time is the service's own share: queueing,
            # HTTP and delivery.  The campaign (or cache lookup) it ran is a
            # child span outside the service layer.
            trace = recorder.new_trace()
            root = recorder.add("service.job", "service", submitted, received, None, trace)
            recorder.add("service.campaign", "campaign", job["started_at"],
                         job["finished_at"], root.span_id, trace)
            out["service.queue_wait_s"] += job["started_at"] - job["submitted_at"]
            out["service.run_s"] += job["finished_at"] - job["started_at"]
            out["service.delivery_s"] += received - job["finished_at"]
        for tier in ("results", "netlists"):
            out[f"service.{tier}_hits"] = float(self.cache[tier]["hits"])
            out[f"service.{tier}_misses"] = float(self.cache[tier]["misses"])
        out["service.compile_count"] = float(self.cache["compile_count"])

        from repro.orchestrate.coordinator import CampaignOrchestrator

        miss_seconds = sum(
            received - submitted for kind, _, _, _, submitted, received in self.jobs
            if kind == "miss"
        )
        out.update({key: 0.0 for key in (
            "orchestrate.runs", "orchestrate.shard_max_s", "orchestrate.imbalance_sum",
            "orchestrate.shard_targeted", "orchestrate.merged_targeted",
            "orchestrate.recomputed", "orchestrate.absorbed_broadcasts",
        )})
        out["orchestrate.miss_latency_s"] = miss_seconds
        for kind, spec, _, payload, _, _ in self.jobs:
            if kind != "miss":
                continue
            circuit = load_circuit(spec["circuit"], scale=spec["scale"])
            config = OrchestratorConfig(jobs=spec["jobs"], campaign_seed=spec["seed"])
            orchestrator = CampaignOrchestrator(circuit, config=config)
            result = orchestrator.run(max_target_faults=spec["max_target_faults"])
            if digest(result) != digest(CampaignResult.from_json(payload["campaign"])):
                self.errors.append(f"{spec['circuit']}-{spec['seed']}: served != orchestrated")
            shards = orchestrator.shard_stats
            shard_seconds = [s["seconds"] for s in shards]
            out["orchestrate.runs"] += 1
            out["orchestrate.shard_max_s"] += max(shard_seconds)
            if sum(shard_seconds) > 0:
                out["orchestrate.imbalance_sum"] += max(shard_seconds) / (
                    sum(shard_seconds) / len(shard_seconds)
                )
            out["orchestrate.shard_targeted"] += sum(s["targeted"] for s in shards)
            out["orchestrate.merged_targeted"] += result.targeted
            out["orchestrate.recomputed"] += orchestrator.recomputed
            out["orchestrate.absorbed_broadcasts"] += sum(s["absorbed_broadcasts"] for s in shards)
        return out


class CrossCheck(Workload):
    """Once per invocation, outside the timed passes: two fingerprint checks.

    1. A served ``s641@0.5`` job (``jobs: 2``) must equal the in-process
       serial campaign with the same settings.
    2. An incremental re-run after one observability edit must equal a
       from-scratch campaign on the edited netlist.
    """

    name = "crosscheck"
    CIRCUIT, SCALE = "s641", 0.5
    TARGETS = 12

    def setup(self) -> None:
        self.daemon = Daemon(os.path.join(self.work_dir, "daemon-crosscheck"))

    def _serial(self, circuit, config) -> CampaignResult:
        return SequentialDelayATPG(circuit, **config.atpg_kwargs()).run(
            max_target_faults=self.TARGETS
        )

    def unit(self) -> None:
        config = OrchestratorConfig(jobs=1)
        spec = {"circuit": self.CIRCUIT, "scale": self.SCALE, "jobs": 2,
                "max_target_faults": self.TARGETS}
        self.attempted += 2
        _, payload, _, _ = self.daemon.run_job(spec)
        served = CampaignResult.from_json(payload["campaign"])
        base_circuit = load_circuit(self.CIRCUIT, scale=self.SCALE)
        serial = self._serial(base_circuit, config)
        self.campaigns.append(summary("crosscheck/served", served))
        self.campaigns.append(summary("crosscheck/serial", serial))
        if digest(served) != digest(serial):
            self.errors.append("crosscheck: served result != serial campaign")

        def edited():
            circuit = load_circuit(self.CIRCUIT, scale=self.SCALE)
            a, b = circuit.primary_inputs[:2]
            circuit.add_gate("eco_check", GateType.AND, [a, b])
            circuit.add_output("eco_check")
            return circuit

        path = os.path.join(self.work_dir, "crosscheck.sqlite")
        if os.path.exists(path):
            os.remove(path)
        with CampaignStore(path) as store:
            store.ingest_result(serial, circuit=base_circuit, config=config)
            outcome = incremental.run_incremental(
                edited(), store, config, max_target_faults=self.TARGETS
            )
        scratch = self._serial(edited(), config)
        self.campaigns.append(summary("crosscheck/incremental", outcome.result))
        self.campaigns.append(summary("crosscheck/scratch", scratch))
        if digest(outcome.result) != digest(scratch):
            self.errors.append("crosscheck: incremental result != from-scratch campaign")


WORKLOADS = {
    cls.name: cls for cls in (DetRobust, HybridNonRobust, ServiceSharded, EcoIncremental)
}

#: Workloads plus the once-per-invocation cross-check.
ALL_WORKLOADS = {**WORKLOADS, CrossCheck.name: CrossCheck}
