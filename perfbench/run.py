"""Whole-campaign benchmark: one command per workload, seed and mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload (each a fresh process, see ``passproc.py``)
while the next one is expected to end within ``--seconds`` and until every
sub-seed of the seed's cycle has run once, then the once-per-invocation
cross-check.  Prints the determinism report (one ``digest`` line per
campaign, and with ``--trace 1`` one ``counts`` line of exact per-layer
counts), then, as the last line, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything a
run writes goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from paths import OUT, ROOT, SRC, program_present  # noqa: E402
import layers  # noqa: E402
from spans import Span  # noqa: E402

WORKLOAD_NAMES = ("det_robust", "hybrid_nonrobust", "service_sharded", "eco_incremental")
#: No pass starts after this many seconds, so a run ends well within 180 s.
HARD_LIMIT_S = 120.0
#: How often a workload's once-per-run preparation runs; setup_s takes the median.
PREPARES = 3
E2E_UNITS = {"wall_s": "s", "request_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "fault_coverage_pct": "%", "abort_pct": "%"}
#: Count metrics that must repeat exactly for a repeated sub-seed.
COUNT_METRICS = (
    "flow.targets", "flow.patterns", "tdgen.calls", "tdgen.backtracks",
    "semilet.propagate_calls", "semilet.sync_calls", "semilet.backtracks",
    "prefilter.sequences", "prefilter.detected", "grading.calls",
    "grading.faults_graded", "grading.candidates", "tdsim.calls",
    "tdsim.detections", "verify.calls", "store.ingest_calls",
    "incremental.cone_size", "incremental.reused", "incremental.retargeted",
)


class Runner:
    """Launches pass processes for one invocation and collects their records."""

    def __init__(self, work_dir: str, started: float) -> None:
        self.work_dir = work_dir
        self.started = started
        self.count = 0

    def launch(self, workload: str, sub_seed: int = 0, trace: int = 0,
               shared: Optional[str] = None, prepare: bool = False) -> Dict:
        self.count += 1
        out = os.path.join(self.work_dir, f"pass-{self.count:03d}.json")
        argv = [sys.executable, os.path.join(HERE, "passproc.py"),
                "--workload", workload, "--sub-seed", str(sub_seed),
                "--trace", str(trace), "--work-dir", self.work_dir, "--out", out]
        if shared:
            argv += ["--shared", shared]
        if prepare:
            argv.append("--prepare")
        timeout = max(10.0, 170.0 - (time.monotonic() - self.started))
        with open(os.path.join(self.work_dir, f"pass-{self.count:03d}.log"), "wb") as log:
            # A session of its own, so that a pass that hangs is killed
            # together with the daemon and workers it started.
            process = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                       start_new_session=True)
            try:
                code = process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                code = "timeout"
        if code != 0 or not os.path.exists(out):
            return {"errors": [f"{workload} pass {self.count} exited with {code}"],
                    "attempted": 1, "campaigns": [], "requests": []}
        with open(out) as handle:
            return json.load(handle)

    def prepare(self, workload: str) -> Tuple[Dict, str]:
        """The workload's once-per-run preparation: its record and the file passes read."""
        record = self.launch(workload, prepare=True)
        path = os.path.join(self.work_dir, "shared.json")
        with open(path, "w") as handle:
            json.dump(record, handle)
        return record, path


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def pooled_layers(records: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics over the given traced passes, spans pooled."""

    spans: List[Span] = []
    extras: Dict[str, float] = {}
    wall = 0.0
    for record in records:
        offset = len(spans)
        for raw in record.get("spans", ()):
            raw = dict(raw)
            raw["span_id"] += offset
            if raw["parent"] is not None:
                raw["parent"] += offset
            spans.append(Span(**raw))
        for key, value in record.get("extras", {}).items():
            extras[key] = extras.get(key, 0.0) + value
        wall += record.get("unit_s", 0.0)
    out = layers.summarize(spans, wall)

    def ratio(num: str, den: str) -> float:
        d = extras.get(den, 0.0)
        return extras.get(num, 0.0) / d if d else 0.0

    for name in ("queue_wait_s", "run_s", "delivery_s", "compile_count"):
        out[f"service.{name}"] = extras.get(f"service.{name}", 0.0)
    for tier, label in (("results", "result"), ("netlists", "netlist")):
        hits = extras.get(f"service.{tier}_hits", 0.0)
        total = hits + extras.get(f"service.{tier}_misses", 0.0)
        out[f"service.{label}_cache_hit_ratio"] = hits / total if total else 0.0
    out["orchestrate.run_s"] = out["orchestrate.busy_s"]
    out["orchestrate.share"] = (
        out["orchestrate.busy_s"] / extras["orchestrate.miss_latency_s"]
        if extras.get("orchestrate.miss_latency_s") else 0.0
    )
    out["orchestrate.shard_max_s"] = extras.get("orchestrate.shard_max_s", 0.0)
    out["orchestrate.shard_imbalance"] = ratio("orchestrate.imbalance_sum", "orchestrate.runs")
    out["orchestrate.speculative_ratio"] = ratio(
        "orchestrate.shard_targeted", "orchestrate.merged_targeted"
    )
    out["orchestrate.recomputed"] = extras.get("orchestrate.recomputed", 0.0)
    out["orchestrate.absorbed_broadcasts"] = extras.get("orchestrate.absorbed_broadcasts", 0.0)
    out["store.db_bytes"] = extras.get("store.db_bytes", 0.0)
    out["trace.spans"] = float(len(spans))
    return out


def determinism_errors(records: List[Dict]) -> Tuple[Dict[str, str], List[str]]:
    """Digest per campaign label; a label with two digests is an error."""
    digests: Dict[str, str] = {}
    errors = []
    for record in records:
        for campaign in record.get("campaigns", ()):
            previous = digests.setdefault(campaign["label"], campaign["digest"])
            if previous != campaign["digest"]:
                errors.append(f"{campaign['label']}: digest changed between passes")
    return digests, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    cycle = cls.CYCLE
    started = time.monotonic()
    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(work_dir, started)

    shared_path, records = None, []
    if hasattr(cls, "prepare"):
        # Prepared several times so that setup_s takes a median; the copies
        # must agree (their digests are compared with everything else's).
        for _ in range(PREPARES):
            prepared, shared_path = runner.prepare(args.workload)
            records.append(prepared)
    prepared_ok = all("prepare_s" in r for r in records)

    modes = (0, 1) if args.trace else (0,)
    measure_start = time.monotonic()
    index = 0
    while prepared_ok:
        sub_seed = args.seed * cycle + index % cycle
        for trace in modes:
            records.append(runner.launch(args.workload, sub_seed, trace, shared_path))
        index += 1
        measured = time.monotonic() - measure_start
        # Stop before a pass that would run past --seconds, once the cycle is done.
        if index >= cycle and measured * (index + 1) / index > args.seconds:
            break
        if time.monotonic() - started > HARD_LIMIT_S:
            break
    check = runner.launch("crosscheck")

    passes = [r for r in records if "unit_s" in r]
    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    digests, errors = determinism_errors(records + [check])
    errors += [e for r in records + [check] for e in r.get("errors", ())]
    attempted = sum(r.get("attempted", 1) for r in records + [check])

    first_cycle: Dict[int, Dict] = {}
    for record in untraced:
        first_cycle.setdefault(record["sub_seed"], record)
    campaigns = [c for r in first_cycle.values() for c in r["campaigns"]]
    total = sum(c["total"] for c in campaigns)

    def percent(key: str) -> float:
        return 100.0 * sum(c[key] for c in campaigns) / total if total else 0.0

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "backend": passes[0]["backend"] if passes else None,
              "passes": len(passes), "digests": digests, "errors": errors,
              "unit_s": [r["unit_s"] for r in passes]}
    if args.trace:
        traced_first: Dict[int, Dict] = {}
        for record in traced:
            traced_first.setdefault(record["sub_seed"], record)
        metrics = pooled_layers(list(traced_first.values()))
        by_seed: Dict[int, Dict[str, float]] = {}
        for record in traced:
            counts = {k: v for k, v in pooled_layers([record]).items() if k in COUNT_METRICS}
            if by_seed.setdefault(record["sub_seed"], counts) != counts:
                errors.append(f"sub-seed {record['sub_seed']}: per-layer counts changed")
        pairs = {}
        for record in passes:
            pairs.setdefault(record["sub_seed"], {}).setdefault(record["traced"], []).append(
                record["unit_s"]
            )
        deltas = [median(p[True]) - median(p[False]) for p in pairs.values()
                  if p.get(True) and p.get(False)]
        metrics["trace.overhead_s"] = median(deltas)
        metrics["trace.wall_s"] = median([r["unit_s"] for r in traced])
        metrics["trace.untraced_wall_s"] = median([r["unit_s"] for r in untraced])
        units = {name: layers.unit_of(name) for name in metrics}
        report["counts"] = {k: metrics[k] for k in COUNT_METRICS}
        with open(os.path.join(work_dir, "trace.json"), "w") as handle:
            json.dump([r.get("spans", []) for r in traced_first.values()], handle)
    else:
        metrics = {
            "wall_s": median([r["unit_s"] for r in untraced]),
            "request_p50_s": median([x for r in untraced for x in r["requests"]]),
            "setup_s": median([r["prepare_s"] for r in records if "prepare_s" in r])
            + median([r["setup_s"] for r in untraced]),
            "peak_rss_mb": max([r["rss_mb"] for r in untraced] or [0.0]),
            "fault_coverage_pct": percent("tested"),
            "abort_pct": percent("aborted_targets"),
        }
        units = E2E_UNITS
    report["metrics"] = metrics
    with open(os.path.join(work_dir, "report.json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    for label in sorted(digests):
        print(f"digest {label} {digests[label]}")
    if args.trace:
        print("counts " + json.dumps(report["counts"], sort_keys=True))
    if not passes:
        print("perfbench: no pass completed", file=sys.stderr)
        for error in errors:
            print(error, file=sys.stderr)
        return 1
    for error in errors:
        print(f"error {error.splitlines()[-1] if error else error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
