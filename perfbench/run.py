"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wf-path --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program under test is imported from
``src/`` (batch workloads) or started from it as ``python -m repro serve``
(the serving workload).  ``--trace 0`` reports the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` is a separate, instrumented
run that reports the per-layer metrics (the serving layers read 0 on the
batch workloads, see :data:`UNEXERCISED`) and writes a Chrome trace
under ``.perfbench/traces/``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}

Every evaluation, acknowledgement and read is checked against an oracle
that does not run Datalog (``oracles.py``).  The exit code is 0 when every
check passed, 1 when some failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BATCH = ("wf-path", "graph-mix")
SERVE = ("serve-mixed",)

SERVING_ONLY = (
    "server.service.commit_ms.tc", "server.service.commit_ms.wm", "server.service.batch_size",
    "materialize.apply_ms", "materialize.recompute_frac", "materialize.wf_layer_updates_per_delta",
    "server.wal.append_ms", "server.wal.snapshot_ms", "server.wal.snapshots",
    "server.wal.write_bytes_per_op", "server.wal.state_bytes", "server.wal.replayed",
    "server.net.ping_p50_ms", "server.net.ping_p95_ms", "server.cpu_ms_per_op",
    "loadgen.late_ms_p95", "write_p50_ms", "write_p95_ms", "wf_write_p50_ms",
    "read_p50_ms", "read_p95_ms", "recovery_s",
)
UNEXERCISED = {"wf-path": SERVING_ONLY, "graph-mix": SERVING_ONLY, "serve-mixed": ()}
"""Per-layer metrics a workload has no layer for: they read 0.  Any other
metric a run does not produce is an error."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=BATCH + SERVE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like a failed one, so the serving workload's
    # clean-up stops the server processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: %s has no src/repro; run from the root of a checkout"
              % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print("perfbench: imported repro from %s, not from %s"
              % (repro.__file__, SRC), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload in BATCH:
        import batch as workload
    else:
        import serve as workload
    out = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))

    attempted, failed = out["attempted"], out["failed"]
    values = dict(out["metrics"])
    values["failed_frac"] = failed / attempted
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None:
            if not args.trace or m["name"] not in UNEXERCISED[args.workload]:
                raise KeyError("workload %s did not measure %s" % (args.workload, m["name"]))
            value = 0.0
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}

    for line in out["log"]:
        print(line)
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
