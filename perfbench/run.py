"""Campaign benchmark: fresh single-process campaigns, correctness-gated.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload resim_deep --seed 0 --seconds 40 --trace 0

Each timed campaign runs in a fresh single-threaded interpreter
(``child.py``: inline scheduler, nothing forked) after one untimed
warm-up set-up, until ``--seconds`` of campaigns have been measured.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, times scaled
to the reference host speed that ``probe.py`` measures:
``injections_per_s`` over all the run's campaigns, the others medians
over its campaigns (``resume_s``: over all its resumes). With
``--trace 1`` they are the per-layer ones
from traced campaigns (see README.md). A campaign whose results fail a
check counts as failed and is never timed as a success; the command
then exits 1. Outside a checkout (no ``src/repro``) it exits 2 without
printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import ELASTICITY, REFERENCE_S  # noqa: E402

#: Workload and metric names with their units, as BENCHMARK.json at the
#: root of the checkout declares them (read by ``main``).
BENCHMARK = HERE.parent / "BENCHMARK.json"

#: Minimum timed campaigns per run, whatever ``--seconds`` says.
MIN_CAMPAIGNS = 3
#: Minimum traced campaigns per traced run (exact counts must repeat).
MIN_TRACED = 2
#: Allowed gap between a traced phase total and the profiler's phase
#: seconds for the same campaign: a share of the phase, or an absolute
#: floor for phases too short to compare by share. The tracer measures
#: the digest's state capture as suffix simulation (it is an argument
#: evaluated before the traced call), which the profiler books as
#: digest: about 8% of either phase on resim_deep.
PHASE_SHARE = 0.15
PHASE_FLOOR_S = 0.05
#: The workload whose traced run is cross-checked against the profiler.
CROSS_CHECKED = "resim_deep"
#: Per-campaign wall limit, and the wall budget of a whole run: no
#: campaign starts unless it could time out within the budget, so a
#: run ends within 180 s even when campaigns hang. ``--seconds`` may
#: ask for at most the budget less one campaign's limit.
CHILD_TIMEOUT_S = 40
RUN_BUDGET_S = 170
#: Fault seeds of one run: SEED_STRIDE * seed + campaign index.
SEED_STRIDE = 1000


def child_env(root: Path) -> dict:
    """Single-threaded, hash-stable environment for every campaign."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_child(root: Path, workdir: Path, workload: str, seed: int,
              mode: str) -> dict:
    """One campaign in a fresh interpreter; returns its result dict.

    A crash, a timeout or an unreadable result comes back as a result
    with a problem, so the caller counts it as a failed campaign.
    """
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed),
               mode, repr(time.monotonic()), str(workdir)]
    try:
        done = subprocess.run(command, cwd=root, env=child_env(root),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"{mode} campaign timed out"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"problems": [f"{mode} campaign exited {done.returncode}: "
                             + " | ".join(tail)]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"problems": [f"{mode} campaign printed no result"]}


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def phase_problems(result: dict) -> list[str]:
    """Traced phase totals that disagree with the profiler's split."""
    problems = []
    profiled = result.get("profile_phases", {})
    for phase, traced in result["phase_split"].items():
        measured = profiled.get(phase, 0.0)
        gap = abs(traced - measured)
        if gap > max(PHASE_FLOOR_S, PHASE_SHARE * measured):
            problems.append(f"traced {phase} {traced:.3f}s vs profiler "
                            f"{measured:.3f}s")
    return problems


def measure(root: Path, workdir: Path, args) -> tuple[dict, list, dict]:
    """Run the campaigns; returns (passing results by mode, failures,
    extras).

    Timed campaign ``i`` of a run draws its faults with seed
    ``SEED_STRIDE * seed + i``, so a run's median spans several fault
    sets instead of repeating one (the work per campaign depends on
    which sites are live). Traced runs repeat the first fault set, so
    their exact counts must match campaign for campaign.
    """
    run_start = time.monotonic()
    failures: list = []
    passed: dict = {"timed": [], "traced": [], "profiled": []}

    def can_start() -> bool:
        return time.monotonic() - run_start + CHILD_TIMEOUT_S < RUN_BUDGET_S

    def campaign(mode, index=0) -> dict:
        result = run_child(root, workdir, args.workload,
                           SEED_STRIDE * args.seed + index, mode)
        problems = result.get("problems", ["no result"])
        for problem in problems:
            print(f"FAILED {mode}: {problem}", file=sys.stderr)
        if problems:
            failures.append(result)
        elif mode != "warmup":
            passed[mode].append(result)
        return result

    # Untimed: compiles bytecode and warms the page cache.
    campaign("warmup")
    start = time.monotonic()
    rounds = 0
    while can_start():
        if args.trace:
            campaign("timed")
            campaign("traced")
            enough = len(passed["traced"]) >= MIN_TRACED
        else:
            campaign("timed", rounds)
            enough = len(passed["timed"]) >= MIN_CAMPAIGNS
        rounds += 1
        elapsed = time.monotonic() - start
        # Stop before a round that would overrun --seconds.
        if enough and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    extras = {}
    if args.trace and args.workload == CROSS_CHECKED and can_start():
        result = campaign("profiled")
        if passed["profiled"]:
            extras["phase_split"] = {
                "traced": result["phase_split"],
                "profiler": result["profile_phases"]}
            problems = phase_problems(result)
            for problem in problems:
                print(f"FAILED profiled: {problem}", file=sys.stderr)
            if problems:
                passed["profiled"].clear()
                failures.append({"problems": problems})
    return passed, failures, extras


def count_problems(traced: list) -> list[str]:
    """Exact per-layer counts that differ between traced campaigns."""
    from tracer import EXACT_COUNTS
    problems = []
    for name in EXACT_COUNTS:
        values = {run["layers"][name] for run in traced}
        if len(values) > 1:
            problems.append(f"{name} differs across traced runs: "
                            f"{sorted(values)}")
    return problems


def at_reference_speed(run: dict) -> dict:
    """A campaign's end-to-end values at the probe's reference
    speed (see probe.py), each as a list: throughput multiplied and
    set-up time divided by the host's slowdown over the same stretch,
    raised to ELASTICITY; every resume scaled by the probe slice timed
    right after it (small CPU-bound steps like the slice's own, so
    without the power). Memory is not scaled."""
    slow = {part: value ** ELASTICITY
            for part, value in run["slowdown"].items()}
    return {
        "injections_per_s": [run["injections_per_s"] * slow["campaign"]],
        "resume_s": [shot * REFERENCE_S / probe for shot, probe
                     in zip(run["resume_times"], run["resume_slices"])],
        "peak_rss_mb": [run["peak_rss_mb"]],
        "setup_s": [run["setup_s"] / slow["setup"]],
    }


def _timings(result: dict) -> dict:
    """A timed campaign's record for the result file (no cell counts)."""
    return {key: value for key, value in result.items()
            if key not in ("counts", "problems")}


def main() -> int:
    declared = json.loads(BENCHMARK.read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= RUN_BUDGET_S - CHILD_TIMEOUT_S:
        parser.error(f"--seconds must be in (0, "
                     f"{RUN_BUDGET_S - CHILD_TIMEOUT_S}]")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a source checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    workdir = root / "perfbench" / "out"
    workdir.mkdir(parents=True, exist_ok=True)

    passed, failures, extras = measure(root, workdir, args)
    timed = passed["timed"]
    metrics: dict = {}
    report: dict = {}
    if args.trace:
        from tracer import median_metrics
        traced = passed["traced"]
        checked = traced + passed["profiled"]
        problems = count_problems(checked) if len(checked) > 1 else \
            ["fewer than two traced campaigns passed"]
        for problem in problems:
            print(f"FAILED traced: {problem}", file=sys.stderr)
            failures.append({"problems": [problem]})
        if traced and timed:
            layers = median_metrics([run["layers"] for run in traced])
            plain, slow = (
                statistics.harmonic_mean(at_reference_speed(run)
                                         ["injections_per_s"][0]
                                         for run in runs)
                for runs in (timed, traced))
            layers["trace.overhead_pct"] = (plain / slow - 1.0) * 100.0
            for name, unit in per_layer.items():
                metrics[name] = {"value": layers[name], "unit": unit}
                print(f"{name:<30} {layers[name]:.6g} {unit}")
        report["phase_split"] = extras.get("phase_split")
    elif timed:
        scaled = [at_reference_speed(run) for run in timed]
        for name, unit in end_to_end.items():
            # resume_s pools every resume of the run, the others take
            # one value per campaign.
            values = [value for run in scaled for value in run[name]]
            q1, med, q3 = quartiles(values)
            value, label = med, "median"
            if name == "injections_per_s":
                # All the run's injections over all its campaign time:
                # the campaigns of a workload make equal numbers of
                # injections, so this is the rates' harmonic mean.
                value, label = statistics.harmonic_mean(values), "run"
            metrics[name] = {"value": value, "unit": unit}
            report[name] = {"value": value, "q1": q1, "median": med,
                            "q3": q3, "n": len(values), "unit": unit}
            print(f"{name:<18} {label} {value:.6g} {unit}  (median "
                  f"{med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")

    failed = len(failures)
    attempted = failed + sum(len(runs) for runs in passed.values())
    correct = failed == 0 and bool(metrics)
    summary = {"correct": correct, "attempted": max(1, attempted),
               "failed": failed, "metrics": metrics}
    (workdir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**summary, "report": report,
                              "failures": [f.get("problems")
                                           for f in failures],
                              "campaigns": [_timings(run) for run in timed]},
                             indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
