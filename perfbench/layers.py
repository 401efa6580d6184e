"""Span instrumentation of the program's layers, installed from outside.

:func:`install` wraps the public calls of each layer named in the
benchmark (TDgen, SEMILET, the random prefix, gross-delay grading, TDsim,
sequence verification, the per-fault flow step, the orchestrator, the
store and the incremental engine) so that every call records a span on a
:class:`~spans.SpanRecorder`.  Nothing under ``src/`` changes: module
attributes and class methods are replaced in the running process only,
which is one pass and ends with it.

:func:`summarize` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable, Dict, List, Optional, Tuple

from spans import Span, SpanRecorder, layer_times

#: Layers in report order.  ``service`` spans are built from job timestamps.
LAYERS = (
    "flow", "tdgen", "semilet", "prefilter", "grading", "tdsim", "verify",
    "orchestrate", "service", "store", "incremental",
)


def _wrap(recorder: SpanRecorder, fn: Callable, name: str, layer: str,
          new_trace: bool = False, after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, layer, new_trace)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if span is not None and after is not None:
            after(span.attrs, args, kwargs, result)
        return result

    return wrapper


def _target_fault(attrs, args, kwargs, result) -> None:
    attrs["tested"] = int(result.tested)
    attrs["patterns"] = result.sequence.pattern_count if result.tested else 0


def _local_test(attrs, args, kwargs, result) -> None:
    attrs["success"] = int(result.status.value == "success")
    attrs["backtracks"] = result.backtracks


def _semilet(attrs, args, kwargs, result) -> None:
    attrs["success"] = int(bool(result.success))
    attrs["backtracks"] = result.backtracks


def _prefix(attrs, args, kwargs, result) -> None:
    attrs["sequences"] = result.applied
    attrs["detected"] = len(result.detected)
    attrs["yielding"] = sum(1 for record in result.records if record.detections)


def _grade(attrs, args, kwargs, result) -> None:
    faults = kwargs["faults"] if "faults" in kwargs else args[2]
    attrs["faults"] = len(faults)
    attrs["candidates"] = sum(1 for grade in result if grade.detected)


def _tdsim(attrs, args, kwargs, result) -> None:
    attrs["detections"] = len(result)


def _verify(attrs, args, kwargs, result) -> None:
    attrs["detected"] = int(bool(result.detected))


def _incremental(attrs, args, kwargs, result) -> None:
    attrs["cone_size"] = result.cone_size
    attrs["reused"] = result.reused
    attrs["retargeted"] = result.retargeted


# (module, attribute path, span name, layer, new trace, attribute hook)
_TARGETS: Tuple[Tuple[str, str, str, str, bool, Optional[Callable]], ...] = (
    ("repro.core.flow", "SequentialDelayATPG.target_fault", "flow.target_fault", "flow", True, _target_fault),
    ("repro.tdgen.engine", "TDgen.generate", "tdgen.generate", "tdgen", False, _local_test),
    ("repro.semilet.engine", "Semilet.propagate", "semilet.propagate", "semilet", False, _semilet),
    ("repro.semilet.engine", "Semilet.synchronize", "semilet.synchronize", "semilet", False, _semilet),
    ("repro.core.prefilter", "RandomPrefixEngine.run", "prefilter.run", "prefilter", False, _prefix),
    # Grading as called by the prefix and the incremental engine (verify
    # uses it internally; those calls stay inside the verify span).
    ("repro.core.prefilter", "grade_test_sequence", "grading.grade", "grading", False, _grade),
    ("repro.store.incremental", "grade_test_sequence", "grading.grade", "grading", False, _grade),
    ("repro.core.flow", "simulate_sequence_detections", "tdsim.sequence", "tdsim", False, None),
    ("repro.core.prefilter", "simulate_sequence_detections", "tdsim.sequence", "tdsim", False, None),
    ("repro.store.incremental", "simulate_sequence_detections", "tdsim.sequence", "tdsim", False, None),
    ("repro.tdsim.cpt", "DelayFaultSimulator.simulate", "tdsim.simulate", "tdsim", False, _tdsim),
    ("repro.core.flow", "verify_test_sequence", "verify.verify", "verify", False, _verify),
    ("repro.orchestrate.coordinator", "CampaignOrchestrator.run", "orchestrate.run", "orchestrate", False, None),
    ("repro.store.store", "CampaignStore.ingest_result", "store.ingest", "store", False, None),
    ("repro.store.store", "CampaignStore.find_base", "store.find_base", "store", False, None),
    ("repro.store.store", "CampaignStore.fault_records", "store.fault_records", "store", False, None),
    ("repro.store.incremental", "run_incremental", "incremental.run", "incremental", False, _incremental),
    ("repro.store.incremental", "compile_circuit", "incremental.diff", "incremental", False, None),
    ("repro.store.incremental", "diff_compiled", "incremental.diff", "incremental", False, None),
    ("repro.store.incremental", "regrade_residue", "incremental.regrade", "incremental", False, None),
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every target, for the rest of this process."""
    for module_name, path, name, layer, new_trace, after in _TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, _wrap(recorder, original, name, layer, new_trace, after))


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "yield", "imbalance")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Per-layer counts, busy/self seconds, ratios and shares of ``wall_s``."""
    times = layer_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, attr: str) -> float:
        return sum(span.attrs.get(attr, 0) for span in by_name.get(name, ()))

    def seconds(name: str) -> float:
        return sum(span.duration for span in by_name.get(name, ()))

    out: Dict[str, float] = {}
    for layer in LAYERS:
        entry = times.get(layer, {"busy_s": 0.0, "self_s": 0.0})
        out[f"{layer}.busy_s"] = entry["busy_s"]
        out[f"{layer}.self_s"] = entry["self_s"]
        out[f"{layer}.share"] = _ratio(entry["busy_s"], wall_s)

    out["flow.targets"] = calls("flow.target_fault")
    out["flow.patterns"] = total("flow.target_fault", "patterns")
    out["tdgen.calls"] = calls("tdgen.generate")
    out["tdgen.success_ratio"] = _ratio(total("tdgen.generate", "success"), calls("tdgen.generate"))
    out["tdgen.backtracks"] = total("tdgen.generate", "backtracks")
    for kind, name in (("propagate", "semilet.propagate"), ("sync", "semilet.synchronize")):
        out[f"semilet.{kind}_calls"] = calls(name)
        out[f"semilet.{kind}_busy_s"] = seconds(name)
        out[f"semilet.{kind}_success_ratio"] = _ratio(total(name, "success"), calls(name))
    out["semilet.backtracks"] = total("semilet.propagate", "backtracks") + total(
        "semilet.synchronize", "backtracks"
    )
    out["prefilter.sequences"] = total("prefilter.run", "sequences")
    out["prefilter.detected"] = total("prefilter.run", "detected")
    out["prefilter.yield"] = _ratio(total("prefilter.run", "yielding"), out["prefilter.sequences"])
    out["grading.calls"] = calls("grading.grade")
    out["grading.faults_graded"] = total("grading.grade", "faults")
    out["grading.candidates"] = total("grading.grade", "candidates")
    out["tdsim.calls"] = calls("tdsim.simulate")
    out["tdsim.detections"] = total("tdsim.simulate", "detections")
    out["verify.calls"] = calls("verify.verify")
    out["verify.detected_ratio"] = _ratio(total("verify.verify", "detected"), calls("verify.verify"))
    out["store.ingest_calls"] = calls("store.ingest")
    out["store.ingest_s"] = seconds("store.ingest")
    out["store.find_base_s"] = seconds("store.find_base")
    out["store.fault_records_s"] = seconds("store.fault_records")
    out["incremental.diff_s"] = seconds("incremental.diff")
    out["incremental.regrade_s"] = seconds("incremental.regrade")
    out["incremental.cone_size"] = total("incremental.run", "cone_size")
    out["incremental.reused"] = total("incremental.run", "reused")
    out["incremental.retargeted"] = total("incremental.run", "retargeted")
    out["incremental.reuse_ratio"] = _ratio(
        out["incremental.reused"], out["incremental.reused"] + out["incremental.retargeted"]
    )
    return out
