"""End-to-end, layer-by-layer benchmark of the repro scheduling system.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-disk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that times the calls into each layer.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every output check passed, 1 when one failed, 2 when the program's
sources are not beside the benchmark.  See perfbench/README.md for what
each workload and metric is.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("sweep-disk", "eptas-fab", "service-mix")


def _run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr[-2000:], file=sys.stderr)
            code = 1
            continue
        for metric, entry in result["metrics"].items():
            print(f"   {metric:34s} {entry['value']:14.6g} {entry['unit']}")
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {common.SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    common.prepare_environment()
    if args.workload == "all":
        return _run_all(args)

    print(f"environment: {json.dumps(common.environment_record(), sort_keys=True)}")
    workdir = common.fresh_workdir(args.workload)
    ctx = common.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), workdir=workdir
    )
    units = common.metric_units("per_layer" if ctx.trace else "end_to_end")
    try:
        outcome = importlib.import_module(args.workload.replace("-", "_")).run(ctx)
        if ctx.trace:
            outcome.metrics["cli.import_repro_s"] = common.cold_import_s("repro")
            outcome.metrics["cli.import_cli_s"] = common.cold_import_s("repro.cli")
        correct = outcome.failed == 0
    except common.BenchError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        outcome, correct = common.Outcome(attempted=1, failed=1), False
    except Exception:
        traceback.print_exc()
        outcome, correct = common.Outcome(attempted=1, failed=1), False
    finally:
        common.cleanup(workdir)
    if correct:
        missing = sorted(set(units) - set(outcome.metrics))
        if missing:
            print(f"error: metrics not measured: {missing}", file=sys.stderr)
            correct = False
    common.emit(outcome, correct, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
