"""Command line: one workload (the contract's form), all five, the
system-under-test child, or ``--compare``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from . import DEFAULT_SEED, harness, spec, workloads


def _parser():
    parser = argparse.ArgumentParser(prog="jkbench", description=__doc__)
    parser.add_argument("--workload", choices=spec.workload_names(),
                        help="run one workload (default: all five, "
                             "untraced then traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".jkbench_out"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="back-to-back sets of all workloads")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows: checks plumbing, not speed")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--sut", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", type=int, default=0,
                        help=argparse.SUPPRESS)
    return parser


def _commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(args, contract):
    """One workload, one mode; prints every metric by name with its
    unit, then the contract's one-line JSON object."""
    seconds = args.seconds or contract["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    harness.scratch_tmpdir()
    shape = harness.Shape(seconds, workloads.WINDOW_S[args.workload],
                          smoke=args.smoke)
    result = workloads.run(args.workload, args.seed, shape,
                           bool(args.trace), args.out, bool(args.corrupt))
    section = "per_layer" if args.trace else "end_to_end"
    unit_by_name = spec.units(contract, section)
    values = {name: entry["value"]
              for name, entry in result["values"].items()}
    unknown = sorted(set(values) - set(unit_by_name))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    correct = not result["failures"] and result["failed"] == 0
    record = {
        "workload": args.workload, "trace": args.trace, "seed": args.seed,
        "seconds": seconds, "commit": _commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_share": result["failed"] / max(result["attempted"], 1),
        "failures": result["failures"], **result["info"],
        "metrics": {name: {**entry, "unit": unit_by_name[name]}
                    for name, entry in result["values"].items()},
    }
    path = args.out / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"failed_share={record['failed_share']:.6f}")
    for name, entry in record["metrics"].items():
        spread = (f"  [{entry['min']:.6g} .. {entry['max']:.6g}]"
                  if "min" in entry else "")
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}{spread}")
    for line in record["failures"] + record["unresolved"]:
        print(f"! {line}")
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": spec.shape(values, unit_by_name),
    }))
    return 0 if correct else 1


def run_all(args, contract):
    """Every workload, untraced then traced, each in a fresh process —
    exactly what the contract's driver does — ``--repeat`` times."""
    sets = []
    status = 0
    for _ in range(args.repeat):
        runs = {}
        for name in spec.workload_names(contract):
            for traced in (0, 1):
                command = [sys.executable, str(spec.HERE / "run.py"),
                           "--workload", name, "--seed", str(args.seed),
                           "--trace", str(traced), "--out", str(args.out)]
                if args.seconds:
                    command += ["--seconds", str(args.seconds)]
                if args.smoke:
                    command.append("--smoke")
                status |= subprocess.run(command).returncode
                record = args.out / f"{name}-trace{traced}.json"
                runs[f"{name}:{traced}"] = json.loads(
                    record.read_text(encoding="utf-8"))
        sets.append(runs)
    path = args.out / "result.json"
    path.write_text(json.dumps({"sets": sets}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"# wrote {path}")
    return status


def main(argv):
    args = _parser().parse_args(argv)
    if args.sut:
        from . import sut

        return sut.main(args.sut, args.seed, bool(args.trace),
                        bool(args.corrupt), args.smoke)
    contract = spec.load()
    if args.compare:
        from . import compare

        return compare.main(args.compare[0], args.compare[1], contract)
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)
