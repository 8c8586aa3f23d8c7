"""One benchmark campaign in a fresh interpreter.

``run.py`` starts this script once per timed campaign, so no
in-process cache (the golden memory cache, rebuilt snapshot sets, memo
tables, decoded golden outputs, the workload lru cache) carries over
from one campaign to the next. It prints one JSON object as the last
line of its standard output.

Modes:

* ``warmup`` — set-up only (imports, specs, kernels), untimed.
* ``timed`` — one fresh campaign into an empty store, then several
  resumes of the finished store; no tracing.
* ``traced`` — the same, with the layer tracer installed: adds the
  per-layer metrics of the campaign and writes its spans to a file.
* ``profiled`` — ``traced`` plus the program's own ``profile=True``
  phase split of the same campaign, for the trace/profiler
  cross-check.

Every mode checks the campaign's results (see ``check_cells``). In
every mode the host-speed sampler of ``probe.py`` runs from the start
to the resumes, and the result carries the host's slowdown during
set-up and campaign, and a probe slice timed right after each resume.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE T0 WORKDIR
(T0 is the parent's ``time.monotonic()`` just before the spawn.)
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: Resumes per campaign: as many as fit in RESUME_WINDOW_S seconds, at
#: least MIN_RESUMES, each timed on its own; run.py pools the times of
#: all the run's children into one resume_s figure.
RESUME_WINDOW_S = 0.2
MIN_RESUMES = 20


def cell_counts(cells) -> dict:
    """``"gpu|workload"`` -> golden cycles + per-structure outcome counts."""
    return {
        f"{cell.gpu}|{cell.workload}": {
            "cycles": cell.cycles,
            "fi": {s: [e.samples, e.masked, e.sdc, e.due, e.pruned,
                       e.resimulated]
                   for s, e in sorted(cell.fi.items())},
        }
        for cell in cells
    }


def check_cells(counts: dict, samples: int, reference: dict | None,
                exact: bool) -> list[str]:
    """Correctness problems of one campaign's cells (empty = correct).

    At any seed: every structure's outcomes partition its samples
    (masked + sdc + due == pruned + resimulated == samples), the cell
    set and the golden cycles match the reference (golden runs do not
    depend on the fault seed). With ``exact`` (the reference seed):
    every per-structure count matches the reference too.
    """
    problems = []
    for key, cell in counts.items():
        for structure, (n, masked, sdc, due, pruned, resim) in \
                cell["fi"].items():
            if n != samples or masked + sdc + due != n \
                    or pruned + resim != n:
                problems.append(
                    f"{key} {structure}: counts {[n, masked, sdc, due]} "
                    f"pruned+resim {pruned}+{resim} vs {samples} samples")
    if reference is None:
        return problems + ["no reference recorded for this workload"]
    if sorted(counts) != sorted(reference):
        problems.append(f"cells {sorted(counts)} != reference "
                        f"{sorted(reference)}")
        return problems
    for key, want in reference.items():
        got = counts[key]
        if got["cycles"] != want["cycles"]:
            problems.append(f"{key}: golden cycles {got['cycles']} != "
                            f"reference {want['cycles']}")
        if exact and got["fi"] != want["fi"]:
            problems.append(f"{key}: outcome counts {got['fi']} != "
                            f"reference {want['fi']}")
    return problems


def main(argv: list[str]) -> dict:
    workload, seed, mode, t0, workdir = argv
    seed, t0, workdir = int(seed), float(t0), Path(workdir)
    traced = mode in ("traced", "profiled")

    # The sampler brings numpy in, so import_s below counts the
    # program's own imports without it; setup_s counts both.
    from probe import Sampler, slice_
    sampler = Sampler()

    import_start = time.perf_counter()
    from repro.engine.matrix import run_campaign
    from repro.engine.scheduler import CampaignStats
    from repro.engine.store import ResultStore
    from repro.kernels.registry import get_workload
    from workloads import DEFAULT_SEED, build_specs
    import_s = time.perf_counter() - import_start

    build_start = time.perf_counter()
    specs = build_specs(workload, seed)
    for spec in specs:
        spec.resolved_gpus()
        for name in spec.resolved_workloads():
            get_workload(name, spec.resolved_scale())
    build_s = time.perf_counter() - build_start

    if mode == "warmup":
        sampler.stop()
        return {"problems": []}
    tracer = None
    if traced:
        from tracer import Tracer, install_layers
        tracer = Tracer()
        install_layers(tracer)

    # leased_sweep runs its pool jobs through the campaign service.
    fleet = _Fleet() if workload == "leased_sweep" else None
    setup_s = time.monotonic() - t0

    store_path = workdir / f"{workload}-{mode}.jsonl"
    store_path.unlink(missing_ok=True)
    sink = None
    if mode == "profiled":
        from repro.telemetry.sink import MemoryTelemetrySink
        sink = MemoryTelemetrySink()
    stats = CampaignStats()
    cells = []
    # Monotonic stretches whose host slowdown the sampler gives.
    windows = {"setup": [t0, t0 + setup_s], "campaign": [time.monotonic()]}
    start = time.perf_counter()
    try:
        for spec in specs:
            cells += run_campaign(
                spec, store=store_path, stats=stats,
                execution=fleet.backend if fleet else None,
                profile=mode == "profiled", telemetry=sink).cells
        campaign_s = time.perf_counter() - start
        windows["campaign"].append(time.monotonic())
    finally:
        # Untimed: the HTTP server's shutdown waits out its poll interval.
        if fleet is not None:
            fleet.close()
    campaign_spans = len(tracer.spans) if tracer else 0

    counts = cell_counts(cells)
    injections = sum(n[0] for c in counts.values() for n in c["fi"].values())
    reference = json.loads(
        (Path(__file__).with_name("reference.json")).read_text()
    ).get(workload)
    problems = check_cells(counts, specs[0].resolved_samples(), reference,
                           exact=seed == DEFAULT_SEED)

    # Each resume is paired with a probe slice timed right after it, in
    # this thread: the sampler stops first so it cannot cut into one.
    sampler.stop()
    resume_times, resume_slices = [], []
    resume_stats = CampaignStats()
    window_end = time.perf_counter() + RESUME_WINDOW_S
    while len(resume_times) < MIN_RESUMES \
            or time.perf_counter() < window_end:
        begin = time.perf_counter()
        store = ResultStore(store_path)
        for spec in specs:
            run_campaign(spec, store=store, stats=resume_stats)
        store.close()
        resume_times.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        slice_()
        resume_slices.append(time.perf_counter() - begin)
    if resume_stats.executed:
        problems.append(f"resumes executed {resume_stats.executed} jobs")
    store = ResultStore(store_path)
    resumed = [cell for spec in specs
               for cell in run_campaign(spec, store=store).cells]
    store.close()
    if cell_counts(resumed) != counts:
        problems.append("resumed cells differ from the campaign's")

    result = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "problems": problems,
        "counts": counts,
        "injections": injections,
        "setup_s": setup_s,
        "import_s": import_s,
        "build_s": build_s,
        "campaign_s": campaign_s,
        "injections_per_s": injections / campaign_s,
        "resume_times": resume_times,
        "resume_slices": resume_slices,
        "slowdown": {part: sampler.slowdown(*span)
                     for part, span in windows.items()},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": stats.executed,
        "store_bytes": store_path.stat().st_size,
    }
    if tracer is not None:
        from tracer import layer_metrics, phase_split
        spans = tracer.spans[:campaign_spans]
        layers = layer_metrics(spans, stats.executed)
        loads = [end - begin for _, name, begin, end, _, _
                 in tracer.spans[campaign_spans:] if name == "store.init"]
        layers["engine.store_load_s"] = statistics.median(loads)
        layers["engine.store_bytes"] = result["store_bytes"]
        rows = [n for cell in counts.values() for n in cell["fi"].values()]
        layers["reliability.prune_ratio"] = (
            sum(n[4] for n in rows) / sum(n[0] for n in rows))
        layers["setup.import_s"] = import_s
        layers["kernels.build_s"] = build_s
        result["layers"] = layers
        result["phase_split"] = phase_split(spans)
        tracer.write(workdir / f"spans-{workload}-{seed}-{mode}.jsonl")
    if sink is not None:
        phases: dict = {}
        for event in sink.of_type("campaign_profile"):
            for phase, seconds in event["profile"]["phases"].items():
                phases[phase] = phases.get(phase, 0.0) + seconds
        result["profile_phases"] = phases
    return result


class _Fleet:
    """In-process coordinator + one worker thread over loopback HTTP."""

    #: Idle poll of the worker: short, so a job waits little for it.
    POLL_S = 0.005

    def __init__(self):
        import threading
        from repro.engine.service import (
            CampaignWorker,
            CoordinatorServer,
            RemoteBackend,
        )
        self.backend = RemoteBackend()
        self.server = CoordinatorServer(self.backend)
        self.server.start()
        self.worker = CampaignWorker(self.server.url, worker_id="bench",
                                     poll_s=self.POLL_S)
        self.errors: list = []
        self.thread = threading.Thread(target=self._work, name="worker",
                                       daemon=True)
        self.thread.start()

    def _work(self):
        try:
            self.worker.run()
        except Exception as error:  # reported by close()
            self.errors.append(error)

    def close(self):
        self.backend.set_shutdown()
        self.thread.join(timeout=30.0)
        self.server.stop()
        if self.thread.is_alive():
            raise RuntimeError("campaign worker thread did not stop")
        if self.errors:
            raise RuntimeError(f"campaign worker failed: {self.errors[0]!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
