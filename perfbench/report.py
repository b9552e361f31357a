"""Run the benchmark over several seeds and print every metric with its spread.

    python3 perfbench/report.py                      # 10 seeds, every workload, both modes
    python3 perfbench/report.py --seeds 5 --workloads serve-mixed --modes 0

Each (workload, seed, mode) is one ``perfbench/run.py`` subprocess, run
one after another.  The table lists every metric by name, unit and
workload with its sample count, median, quartiles and spread (the
distance between the quartiles as a share of the median, the figure
``BENCHMARK.json``'s bounds are judged against).  The full record —
machine meta, seeds, each workload's reason and every run's output — is
written to ``.perfbench/report.json``.  The exit code is 1 if any run
failed a correctness check or did not finish, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def machine() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import json, numpy, repro.db.kernel as k;"
        "print(json.dumps({'numpy': numpy.__version__, 'kernel_backend': k.backend()}))"
    )
    try:
        found = json.loads(subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60).stdout)
    except (subprocess.SubprocessError, ValueError):
        found = {"numpy": None, "kernel_backend": None}
    return dict(found, nproc=os.cpu_count(), python=platform.python_version(),
                host=platform.node(), platform=platform.platform())


def spread(values):
    if len(values) < 2:
        return None, None, None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / q2 if q2 else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--modes", nargs="+", type=int, choices=(0, 1), default=[0, 1],
                        help="0 = end-to-end (untraced), 1 = per-layer (traced)")
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    seconds = spec["run_seconds"]
    record = {"meta": machine(), "seeds": seeds, "seconds": seconds,
              "why": {w["name"]: w["why"] for w in spec["workloads"]}, "runs": []}
    ok = True
    for workload in args.workloads:
        for mode in args.modes:
            for seed in seeds:
                started = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)],
                    cwd=str(ROOT), capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                good = proc.returncode == 0 and result is not None and result["correct"]
                ok = ok and good
                record["runs"].append({"workload": workload, "seed": seed, "trace": mode,
                                       "exit": proc.returncode, "wall_s": time.perf_counter() - started,
                                       "result": result, "log": lines[:-1],
                                       "stderr": proc.stderr[-2000:]})
                print("%-12s seed %-4d trace %d  %s  %.1f s" % (
                    workload, seed, mode, "ok" if good else "FAILED (exit %d)" % proc.returncode,
                    time.perf_counter() - started), file=sys.stderr, flush=True)

    print("meta: %s" % json.dumps(record["meta"]))
    print("seeds: %s  seconds: %g" % (seeds, seconds))
    for workload in args.workloads:
        print("%s: %s" % (workload, record["why"][workload]))
    print("%-44s %-6s %-12s %3s %12s %12s %12s %8s" % (
        "metric", "unit", "workload", "n", "median", "q1", "q3", "spread"))
    for mode in args.modes:
        for m in spec["per_layer" if mode else "end_to_end"]:
            for workload in args.workloads:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in record["runs"]
                          if r["workload"] == workload and r["trace"] == mode and r["result"]]
                if not values:
                    continue
                q1, q3, sp = spread(values)
                print("%-44s %-6s %-12s %3d %12.6g %12s %12s %8s" % (
                    m["name"], m["unit"], workload, len(values), statistics.median(values),
                    "-" if q1 is None else "%.6g" % q1, "-" if q3 is None else "%.6g" % q3,
                    "-" if sp is None else "%.3f" % sp))
    out = ROOT / ".perfbench" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print("record: %s" % out.relative_to(ROOT))
    print("correctness: %s" % ("every check passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
