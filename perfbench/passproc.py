"""One pass of a workload in a fresh process; writes its record as JSON.

    python3 perfbench/passproc.py --workload NAME --sub-seed N --trace 0|1 \\
        --work-dir DIR --out FILE [--shared FILE] [--prepare]

Set-up time runs from this process's first line, so imports, circuit load,
compilation and memo-table fill all count toward it; the timed unit starts
after set-up.  With ``--trace 1`` the layer instrumentation is installed
before set-up and the spans of the unit are kept in memory and written
with the record.  ``--prepare`` instead runs the workload's once-per-run
preparation (the incremental workload's base campaign).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from paths import SRC  # noqa: E402

sys.path.insert(0, SRC)

import layers  # noqa: E402
from repro.fausim.backends import resolve_backend  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import ALL_WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest finished descendant's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--sub-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--shared", default=None)
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args()
    cls = ALL_WORKLOADS[args.workload]

    if args.prepare:
        shared = cls.prepare(args.work_dir)
        shared["prepare_s"] = time.perf_counter() - START
        with open(args.out, "w") as handle:
            json.dump(shared, handle)
        return 0

    shared = {}
    if args.shared:
        with open(args.shared) as handle:
            shared = json.load(handle)
    recorder = SpanRecorder()
    recorder.enabled = False
    if args.trace:
        layers.install(recorder)
    workload = cls(args.sub_seed, shared, args.work_dir)
    record = {"sub_seed": args.sub_seed, "traced": bool(args.trace)}
    try:
        workload.setup()
        record["setup_s"] = time.perf_counter() - START
        recorder.enabled = bool(args.trace)
        root = recorder.open("pass", "bench")
        start = time.perf_counter()
        workload.unit()
        record["unit_s"] = time.perf_counter() - start
        recorder.close(root)
        recorder.enabled = False
        workload.check()
        if args.trace:
            recorder.enabled = True
            record["extras"] = workload.extras(recorder)
            recorder.enabled = False
            record["spans"] = [span.to_json() for span in recorder.spans]
    except Exception:  # noqa: BLE001 - the record reports the failure
        workload.errors.append(traceback.format_exc())
    finally:
        workload.close()
    record.update(
        backend=resolve_backend(None),
        requests=workload.requests,
        campaigns=workload.campaigns,
        errors=workload.errors,
        attempted=max(workload.attempted, 1),
        rss_mb=peak_rss_mb(),
    )
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
