"""liecomposite benchmark: closed-loop CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload closure --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 1

One client runs one workload at a time: each repetition is a fresh child
interpreter (perfbench/child.py) that runs the workload's commands, so the
process-wide caches start cold as they do for a CLI user.  Repetitions
continue while another one fits in ``--seconds``; at least one runs.
Every repetition's reports are checked against reference.json.

With ``--trace 0`` the result carries the end-to-end metrics (medians over
the repetitions); with ``--trace 1`` repetitions alternate untraced and
traced, and the result carries the per-layer metrics of the traced ones
plus the tracing overhead.  Human-readable lines come first; the last line
of standard output is the JSON result.  The full record, with every sample
and the machine state, is written to .perfbench_runs/.
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

from calibration import REFERENCE_S, speed_factor
from tracing import LAYERS, PER_LAYER
from workloads import SEED_DEPENDENT, WORKLOADS, check_outcomes, load_reference

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_PROBES = 5  # extra set-up-only children per untraced run
TIME_LIMIT_S = 170  # a single-workload run ends well inside 180 s


def environment() -> dict:
    """Interpreter, CPUs, commit and load average, read without side effects."""
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "loadavg": load,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(spec: dict, timeout: float):
    """Run one child; returns (result dict or None, error text, seconds taken)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    started = time.perf_counter()
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"),
            json.dumps(dict(spec, t_spawn=started))]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s", time.perf_counter() - started
    taken = time.perf_counter() - started
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"child exit {proc.returncode}: {tail[0]}", taken
    return json.loads(proc.stdout.strip().splitlines()[-1]), "", taken


def src_lines() -> dict:
    return {
        f"{layer}.src_lines": len((ROOT / "src" / "liecomposite" / f"{layer}.py")
                                  .read_text(encoding="utf-8").splitlines())
        for layer in LAYERS
    }


def run_workload(workload: str, seconds: int, trace: bool, expected: list) -> dict:
    """Repeat one workload for ``seconds``; returns samples and problems.

    Every repetition's outcomes are checked against ``expected``, the
    workload's reference list.
    """
    deadline = time.perf_counter() + TIME_LIMIT_S
    base = {"workload": workload, "small": False}
    spans_path = OUT_DIR / f"spans-{workload}.jsonl"

    def timeout():
        return max(1.0, deadline - time.perf_counter())

    # The first child compiles the package's bytecode; it is not timed.
    warm, error, _ = spawn(dict(base, mode="setup"), timeout())
    if warm is None:
        raise RuntimeError(f"{workload}: the program does not start: {error}")
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe, error, _ = spawn(dict(base, mode="setup"), timeout())
            if probe is None:
                raise RuntimeError(f"{workload}: set-up probe failed: {error}")
            setups.append(probe)

    modes = ("run", "trace") if trace else ("run",)
    runs = {mode: [] for mode in modes}
    taken = {mode: [] for mode in modes}
    attempted, failed, problems = 0, 0, []
    start = time.perf_counter()
    turn = 0
    while True:
        mode = modes[turn % len(modes)]
        turn += 1
        spec = dict(base, mode=mode, spans=str(spans_path))
        result, error, seconds_taken = spawn(spec, timeout())
        attempted += 1
        taken[mode].append(seconds_taken)
        found = [error] if result is None else check_outcomes(expected, result["outcomes"])
        failed += bool(found)
        problems.extend(f"{mode} run {attempted}: {p}" for p in found)
        if result is not None:
            runs[mode].append(result)
        if error.startswith("child timed out"):
            break
        if turn < len(modes):
            continue
        next_mode = modes[turn % len(modes)]
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(taken[next_mode]) > seconds:
            break
    return {"setups": setups, "runs": runs, "attempted": attempted,
            "failed": failed, "problems": problems}


def speed(child: dict) -> float:
    """Reference-speed multiplier for a child's timed interval."""
    return speed_factor(statistics.fmean(child["calibration_s"]))


def setup_speed(child: dict) -> float:
    """Multiplier for a child's set-up: the calibration right after it."""
    return speed_factor(child["calibration_s"][0])


def end_to_end(record: dict) -> dict:
    """Samples per end-to-end metric; seconds are reference-speed seconds."""
    reps = record["runs"]["run"]
    walls = [r["wall_s"] * speed(r) for r in reps]
    samples = {
        "wall_s": walls,
        "cpu_s": [r["cpu_s"] * speed(r) for r in reps],
        "items_per_s": [sum(o["items"] for o in r["outcomes"]) / wall
                        for r, wall in zip(reps, walls)],
        "setup_s": [c["setup_s"] * setup_speed(c) for c in record["setups"] + reps],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in reps],
    }
    return {name: (unit, samples[name]) for name, unit in END_TO_END}


def per_layer(record: dict) -> dict:
    """Samples per per-layer metric; seconds are reference-speed seconds."""
    traced = record["runs"]["trace"]
    untraced = record["runs"]["run"]
    fixed = src_lines()
    samples = {}
    for name, unit in PER_LAYER:
        if name in fixed:
            samples[name] = (unit, [fixed[name]])
        elif not name.startswith("trace."):
            samples[name] = (unit, [r["layers"][name] * (speed(r) if unit == "s" else 1)
                                    for r in traced])
    traced_walls = [r["wall_s"] * speed(r) for r in traced]
    untraced_walls = [r["wall_s"] * speed(r) for r in untraced]
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    samples["trace.wall_s"] = ("s", traced_walls)
    samples["trace.untraced_wall_s"] = ("s", untraced_walls)
    samples["trace.overhead_s"] = ("s", [overhead])
    samples["trace.spans"] = ("count", [r["layers"]["trace.spans"] for r in traced])
    return {name: samples[name] for name, _ in PER_LAYER}


def raw_line(record: dict) -> str:
    """Unscaled medians, so the host's speed during the run stays visible."""
    reps = record["runs"]["run"]
    children = record["setups"] + reps + record["runs"].get("trace", [])
    return (f"  unscaled: wall_s median {statistics.median(r['wall_s'] for r in reps):.4f} s; "
            f"calibration median {statistics.median(c for r in children for c in r['calibration_s']):.4f} s "
            f"against the reference {REFERENCE_S} s")


def summarize(record: dict, trace: bool) -> dict:
    """Medians per metric, with sample counts, from one workload's record."""
    if not record["runs"]["run"] or (trace and not record["runs"]["trace"]):
        return {}
    samples = per_layer(record) if trace else end_to_end(record)
    return {
        name: {"value": statistics.median(values), "unit": unit, "samples": len(values)}
        for name, (unit, values) in samples.items()
    }


def report_lines(workload: str, metrics: dict, record: dict) -> list:
    lines = [f"workload {workload}: {record['attempted']} runs attempted, "
             f"{record['failed']} failed, error_share "
             f"{record['failed'] / record['attempted']:.3f}; inputs depend on seed: "
             f"{'yes' if SEED_DEPENDENT[workload] else 'no'}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} "
                     f"median of {m['samples']}")
    lines.extend(f"  problem: {p}" for p in record["problems"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "liecomposite" / "__init__.py").is_file():
        print("error: src/liecomposite is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    reference = load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env_start = environment()
    print(f"perfbench seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={env_start['python']} nproc={env_start['nproc']} "
          f"commit={env_start['commit']} loadavg={env_start['loadavg']}")

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            record = run_workload(workload, args.seconds, trace, reference[workload])
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = summarize(record, trace)
        if not metrics:
            print(f"error: {workload}: no run completed: {record['problems']}",
                  file=sys.stderr)
            return 1
        for line in report_lines(workload, metrics, record):
            print(line)
        print(raw_line(record))
        env_end = environment()
        out = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env_start": env_start, "env_end": env_end,
            "inputs_depend_on_seed": SEED_DEPENDENT[workload],
            "metrics": metrics, "record": record,
        }, indent=1) + "\n")
        print(f"  loadavg at end {env_end['loadavg']}; record in {out.relative_to(ROOT)}")
        prefix = f"{workload}." if len(names) > 1 else ""
        combined["correct"] = combined["correct"] and record["failed"] == 0
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        combined["metrics"].update({
            prefix + name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        })
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
