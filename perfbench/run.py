"""Benchmark of the lookahead search loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stack-run --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(and writes every span to ``.perfbench_work/trace-<workload>.npz``).
``--workload all`` runs each workload in turn. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--write-golden`` records the current program's episode outcomes at the
reference seed as the golden records every later run is checked against.

The program is imported from ``src/`` next to this directory and nowhere else;
without it the command exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


def _import_program():
    """Put ``src/`` and the checkout root first on the path and import the program."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import lookahead
    except ImportError:
        return None
    if not Path(lookahead.__file__).resolve().is_relative_to(src):
        return None
    return lookahead


def _machine() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the episode outcomes at the reference seed and exit")
    args = parser.parse_args(argv)

    if _import_program() is None:
        print(f"error: the lookahead sources are not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import measure
    from perfbench.workloads import REFERENCE_SEED, WORKLOADS, golden_path, records, set_up

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]

    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        if args.write_golden:
            setup = set_up(workload, tmp)
            workers = measure.effective_workers(workload)
            config = workload.config(REFERENCE_SEED, workload.golden_episodes)
            report = workload.call(config, setup, workers)
            doc = {"workload": workload.name, "seed": REFERENCE_SEED, "machine": _machine(),
                   "arms": records(report)}
            golden_path(workload).parent.mkdir(exist_ok=True)
            golden_path(workload).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {golden_path(workload).relative_to(ROOT)}")
            return 0
        if args.trace:
            result = measure.run_traced(workload, args.seed, args.seconds, tmp,
                                        WORKDIR / f"trace-{workload.name}.npz")
            units = {name: unit for name, unit, _ in measure.PER_LAYER}
        else:
            result = measure.run_untraced(workload, args.seed, args.seconds, tmp)
            units = {name: unit for name, unit, _, _ in measure.END_TO_END}
    except measure.WorkerCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"workers={workload.workers} {_machine()}")
    for line in format_lines(result, units):
        print(line)
    print(json.dumps(result.to_json_dict(units)))
    return 0


def format_lines(result, units: dict[str, str]) -> list[str]:
    """One line per metric: name, value, unit, and what the value was taken over."""
    lines = []
    rows = [(name, result.metrics[name], units[name]) for name in units]
    rows.append(("failed_frac", result.failed / result.attempted, "ratio"))
    for name, value, unit in rows:
        note = result.notes.get(name)
        lines.append(f"{name} {value!r} {unit}" + (f"  ({note})" if note else ""))
    return lines


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Run every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
