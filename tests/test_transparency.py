"""Execution settings never change a stored result.

Checkpoints, the suffix memo, telemetry, profiling, the shard size, the
worker count, the campaign service and the spec-file CLI are execution
resources, and the ``models`` figure is the fault-model sweep: each must leave a campaign's result store bit-identical
(wall times aside) and join no job fingerprint. Every row runs a
reference campaign and a variant that differs in one setting, and
asserts:

(a) the row is not vacuous: the reference re-simulated live faults on
    every chip and its outcome rows hold at least one SDC and one DUE;
    every in-process campaign of the row with checkpoints on restored
    snapshots to simulate only fault suffixes, and exited early at
    least once unless its fault model is persistent (stuck-at faults
    never converge back to the golden run);
(b) the two stores agree under :func:`repro.engine.store.diff_stores`
    (append order checked, except for the concurrent executions);
(c) the variant resumes the reference store executing no job. With
    checkpoints the interval joins the cell fingerprint
    (:func:`repro.engine.fingerprint.cell_params`), so there every
    golden, plan and shard job is reused and only cells are re-reduced,
    to the same values.

The ``backend-*`` rows hold the interpreter to the frozen verdict of
the retired per-lane python interpreter: their reference is a store it
wrote (``tests/fixtures/python_backend``) for the datapath and control
structures under every fault model, checkpoints off, and the variant
is the same campaign run today.

Each distinct campaign runs once per module and is shared by the rows
that compare against it.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import re
import shutil
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.arch.structures import CONTROL_STRUCTURES
from repro.checkpoint import capture, memo
from repro.engine import clear_memory_cache, jobs, run_campaign
from repro.engine.service import CampaignService
from repro.engine.store import ResultStore, diff_stores
from repro.experiments.runner import main
from repro.faultmodels.registry import get_fault_model
from repro.sim import vector
from repro.spec import CampaignSpec
from repro.telemetry import (
    PHASES,
    TELEMETRY_SCHEMA_VERSION,
    load_telemetry,
    telemetry_path_for_store,
)
from tests.conftest import MINI_AMD, MINI_NVIDIA
from tests.test_service import _run_distributed

#: Two ISAs on live-fault-rich kernels: at 12 samples every fault model
#: yields SDC, DUE and MASKED outcomes (transient and MBU faults also
#: converge early) in about a second per campaign.
REFERENCE = CampaignSpec(gpus=(MINI_NVIDIA, MINI_AMD),
                         workloads=("histogram", "scan"), scale="tiny",
                         samples=12)
CONTROL = REFERENCE.replace(structures=CONTROL_STRUCTURES)
AUTO = REFERENCE.replace(checkpoint_interval="auto")
FAULT_MODELS = ("transient", "stuck_at", "mbu")

#: The CLI rows' campaign. Paper chips need 48 samples before a
#: register-file site survives liveness pruning.
FIG1_ARGS = ["fig1", "--samples", "48", "--scale", "tiny",
             "--gpus", "gtx480", "hd7970", "--workloads", "histogram", "scan"]
#: The CLI command of each CLI row; SPEC stands for ``SPEC_FILE``,
#: written next to the row's store.
CLI = {
    "fig1": FIG1_ARGS,
    "run": ["run", "SPEC"],
    "models": ["models", *FIG1_ARGS[1:], "--structures", "register_file"],
    "sweep": ["sweep", "SPEC", "--axis",
              "fault_model=" + ",".join(FAULT_MODELS)],
}
SPEC_FILE = """\
name = "fig1 twin"
gpus = ["gtx480", "hd7970"]
workloads = ["histogram", "scan"]
scale = "tiny"
samples = 48
seed = 0
structures = ["register_file"]
checkpoint_interval = "auto"
"""
#: Stores the python interpreter wrote for the checkpoint-off
#: ``REFERENCE``/``CONTROL`` campaigns (see README.md there).
FROZEN = Path(__file__).parent / "fixtures" / "python_backend"
SUMMARY = re.compile(r"campaign: \d+ jobs — \d+ cached, \d+ executed "
                     r"\((.*); cached\+executed per kind\)")


@dataclass(frozen=True)
class Run:
    """One way to execute a campaign.

    ``how``: "inline" (one process), "workers" (a 2-process pool),
    "service" (an in-process coordinator plus one worker thread),
    a ``CLI`` command (the CLI campaign above; ``spec`` is then None), or
    "frozen" (never executed: the python interpreter's store of
    ``spec``, read from ``FROZEN``).
    """

    spec: CampaignSpec | None
    how: str = "inline"

    @property
    def checkpointed(self) -> bool:
        return self.spec is None or self.spec.checkpoint_interval is not None

    @property
    def frozen_store(self) -> Path:
        name = "datapath" if self.spec.structures is None else "control"
        return FROZEN / f"{name}-{self.spec.fault_model}.jsonl"

    @property
    def converges(self) -> bool:
        """Whether its faults can converge back to the golden run."""
        return self.spec is None or \
            not get_fault_model(self.spec.fault_model).persistent


@dataclass(frozen=True)
class Row:
    reference: Run
    variant: Run
    #: Concurrent executions complete jobs in racy order.
    ignore_order: bool = False
    #: Shard geometry is part of the shard fingerprints: compare the
    #: re-simulated outcome rows instead of the shard records.
    reshards: bool = False


def _rows() -> dict[str, Row]:
    rows = {}
    for model in FAULT_MODELS:
        for name, base in (("datapath", REFERENCE), ("control", CONTROL)):
            off = base.replace(fault_model=model)
            for interval in (300, "auto"):
                rows[f"checkpoint={interval}-{name}-{model}"] = Row(
                    Run(off), Run(off.replace(checkpoint_interval=interval)))
            label = model if base is REFERENCE else f"{name}-{model}"
            rows[f"backend-{label}"] = Row(Run(off, "frozen"), Run(off))
        auto = AUTO.replace(fault_model=model)
        rows[f"suffix_memo-{model}"] = Row(
            Run(auto.replace(suffix_memo=False)), Run(auto))
    rows["telemetry"] = Row(Run(AUTO), Run(AUTO.replace(telemetry=True)))
    rows["profile"] = Row(Run(AUTO), Run(AUTO.replace(profile=True)))
    rows["shard_size"] = Row(Run(AUTO), Run(AUTO.replace(shard_size=1)),
                             reshards=True)
    rows["workers"] = Row(Run(AUTO), Run(AUTO, "workers"), ignore_order=True)
    rows["service"] = Row(Run(AUTO), Run(AUTO, "service"), ignore_order=True)
    rows["run-spec-vs-fig1"] = Row(Run(None, "fig1"), Run(None, "run"))
    rows["models-vs-sweep"] = Row(Run(None, "models"), Run(None, "sweep"))
    return rows


ROWS = _rows()


def _fresh_caches() -> None:
    """Drop every per-process cache a previous campaign could feed."""
    clear_memory_cache()
    memo._MEMO_CACHE.clear()
    capture._REBUILD_CACHE.clear()
    vector.clear_caches()


@contextlib.contextmanager
def _counting_shortcuts():
    """Count in-process suffix-only re-simulations and early exits."""
    counts = {"suffix": 0, "early_exit": 0}
    original = jobs.resimulate_plan

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        counts["suffix"] += kwargs["snapshots"] is not None
        counts["early_exit"] += result.early_exit
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jobs, "resimulate_plan", spy)
        yield counts


def _cli(argv: list[str]) -> dict[str, int]:
    """Run the CLI; executed jobs per kind from its summary line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main(argv) == 0, err.getvalue()
    detail = SUMMARY.search(err.getvalue()).group(1)
    return {kind: int(executed) for kind, executed
            in re.findall(r"(\w+)=\d+\+(\d+)", detail)}


def _execute(run: Run, store) -> tuple[dict, dict[str, int]]:
    """Run (or resume) ``run`` on ``store``: (shortcuts, executed/kind)."""
    _fresh_caches()
    with _counting_shortcuts() as shortcuts:
        if run.how in ("inline", "workers"):
            stats = run_campaign(run.spec, store=store,
                                 workers=2 if run.how == "workers" else 1
                                 ).stats
        elif run.how == "service":
            with pytest.MonkeyPatch.context() as patch, \
                    ResultStore(store) as result_store:
                patch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
                stats, _ = _run_distributed(result_store, [run.spec],
                                            worker_ids=("w1",),
                                            give_up_s=0.5)
        else:
            spec_file = store.with_suffix(".toml")
            spec_file.write_text(SPEC_FILE)
            argv = [str(spec_file) if arg == "SPEC" else arg
                    for arg in CLI[run.how]]
            return shortcuts, _cli(argv + ["--quiet", "--resume", str(store)])
    return shortcuts, {kind: counts["executed"]
                       for kind, counts in stats.by_kind.items()}


class Campaigns:
    """Fresh campaign stores, each run once and shared between rows."""

    def __init__(self, root, runs):
        """Run every campaign in ``runs`` on a fresh store, two at a time.

        Campaigns without checkpoints re-simulate whole runs and take
        longest, so they go first.
        """
        self.root = root
        self._resumes = 0
        runs = sorted(dict.fromkeys(runs), key=lambda run: run.checkpointed)
        stores = {run: root / f"run{i}.jsonl" for i, run in enumerate(runs)
                  if run.how != "frozen"}
        #: run -> (store path, shortcuts taken)
        self.fresh = {run: (run.frozen_store, {"suffix": 0, "early_exit": 0})
                      for run in runs if run.how == "frozen"}
        with ProcessPoolExecutor(
                max_workers=2,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = {run: pool.submit(_execute, run, store)
                       for run, store in stores.items()}
            self.fresh.update(
                (run, (stores[run], future.result(timeout=600)[0]))
                for run, future in futures.items())

    def resume(self, run: Run, reference_store):
        """``run`` resumed on a copy of a store: (executed/kind, copy)."""
        self._resumes += 1
        store = self.root / f"resume{self._resumes}.jsonl"
        shutil.copy(reference_store, store)
        return _execute(run, store)[1], store


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    yield Campaigns(tmp_path_factory.mktemp("transparency"),
                    (run for row in ROWS.values()
                     for run in (row.reference, row.variant)))
    _fresh_caches()


def _records(store) -> list[dict]:
    return [json.loads(line) for line in store.read_text().splitlines()]


def _shard_rows(store) -> list[list]:
    """Every re-simulated fault's outcome row in the store."""
    return [row for record in _records(store) if record["kind"] == "shard"
            for row in record["payload"]["results"]]


def _assert_not_vacuous(store) -> None:
    # A cell counts re-simulations only from its chip's shard records.
    resimulated = Counter()
    for record in _records(store):
        if record["kind"] == "cell":
            resimulated[record["payload"]["gpu"]] += sum(
                est["resimulated"] for est in record["payload"]["fi"].values())
    assert len(resimulated) == 2 and all(resimulated.values()), resimulated
    outcomes = {row[-3] for row in _shard_rows(store)}
    assert {"sdc", "due"} <= outcomes, outcomes


@pytest.mark.parametrize("row_id", list(ROWS))
def test_setting_leaves_the_store_unchanged(campaigns, row_id):
    row = ROWS[row_id]
    reference, reference_shortcuts = campaigns.fresh[row.reference]
    variant, variant_shortcuts = campaigns.fresh[row.variant]

    # (a) live faults were re-simulated, and shortcuts were taken
    _assert_not_vacuous(reference)
    for run, shortcuts in ((row.reference, reference_shortcuts),
                           (row.variant, variant_shortcuts)):
        if run.checkpointed and run.how != "workers":
            assert shortcuts["suffix"] > 0, (run, shortcuts)
            if run.converges:
                assert shortcuts["early_exit"] > 0, (run, shortcuts)

    # (b) the same stored results
    problems = diff_stores(reference, variant, ignore_order=row.ignore_order)
    if row.reshards:
        problems = [p for p in problems if not p.startswith("shard ")]
        assert sorted(map(json.dumps, _shard_rows(reference))) == \
            sorted(map(json.dumps, _shard_rows(variant)))
    assert problems == []

    # (c) the variant reuses every job of the reference store
    executed, resumed = campaigns.resume(row.variant, reference)
    if row.reference.checkpointed == row.variant.checkpointed:
        assert sum(executed.values()) == 0, executed
    else:
        ran = {kind for kind, count in executed.items() if count}
        assert ran == {"cell"}, executed
    assert diff_stores(reference, resumed) == []


def test_telemetry_stream_is_well_formed(campaigns):
    store, _ = campaigns.fresh[ROWS["telemetry"].variant]
    events = load_telemetry(telemetry_path_for_store(store))
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert all(e["v"] == TELEMETRY_SCHEMA_VERSION for e in events)
    assert all(isinstance(e["ts"], float) and e["event"] for e in events)
    assert events[0]["event"] == "campaign_begin"
    assert events[-1]["event"] == "campaign_end"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["status", str(store)]) == 0
    for line in ("completed in", "cache hit rate", "occupancy"):
        assert line in out.getvalue()


def test_profile_covers_the_cell_work(campaigns):
    store, _ = campaigns.fresh[ROWS["profile"].variant]
    events = load_telemetry(telemetry_path_for_store(store))
    cells = [e for e in events if e["event"] == "cell_profile"]
    (summary,) = [e for e in events if e["event"] == "campaign_profile"]
    assert len(cells) == 4
    for event in cells:
        profile = event["profile"]
        assert set(profile["phases"]) <= set(PHASES)
        assert profile["counters"]["warp_issues"] > 0
        assert profile["dispatch"]
    assert {"suffix_sim", "restore", "digest"} <= set(
        summary["profile"]["phases"])
    attributed = sum(summary["profile"]["phases"].values())
    assert 0.5 < attributed / summary["work_s"] < 1.5
    for argv, lines in ((["profile", str(store)],
                         ("phase breakdown", "opcode-class dispatch mix",
                          "top cost centers", "100.0%")),
                        (["status", str(store), "--follow", "--once"],
                         ("completed in",))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        for line in lines:
            assert line in out.getvalue()
