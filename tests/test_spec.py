"""CampaignSpec: validation, serialization, sweeps, fingerprints.

The spec API's contract has four load-bearing pieces, each pinned
here:

* construction validates every field against the relevant registry
  with a ConfigError naming the offending field;
* TOML/JSON round trips are exact (``from_dict(to_dict(s)) == s``);
* sweeps expand the axis product in row-major order and re-validate
  every child;
* spec fields map onto stable job fingerprints, and every campaign
  entry point rejects anything but a spec as its first argument.
"""

from __future__ import annotations

import functools

import pytest

from repro.engine import clear_memory_cache
from repro.engine.matrix import cell_fingerprints, run_campaign
from repro.engine.scheduler import CampaignStats
from repro.errors import ConfigError
from repro.experiments.figures import (
    FIGURES,
    local_memory_workloads,
    run_figure,
)
from repro.reliability.campaign import run_cell
from repro.reliability.liveness import AceMode
from repro.spec import CampaignSpec, expand_sweep, run_sweep
from tests.conftest import MINI_AMD, MINI_NVIDIA


class TestValidation:
    """Every bad field fails loudly, naming the field."""

    @pytest.mark.parametrize("kwargs,needle", [
        ({"gpus": ("nosuchchip",)}, "gpus"),
        ({"gpus": (42,)}, "gpus"),
        ({"workloads": ("nosuchbench",)}, "workloads"),
        ({"scale": "huge"}, "scale"),
        ({"samples": 0}, "samples"),
        ({"samples": "many"}, "samples"),
        ({"samples": True}, "samples"),
        ({"seed": -1}, "seed"),
        ({"scheduler": "fifo"}, "scheduler"),
        ({"scheduler": ["rr"]}, "scheduler"),
        ({"structures": ("l2_cache",)}, "structures"),
        ({"structures": ()}, "structures"),
        ({"structures": (["register_file"],)}, "structures"),
        ({"fault_model": "gamma_ray"}, "fault_model"),
        ({"fault_model": ["transient"]}, "fault_model"),
        ({"ace_mode": "optimistic"}, "ace_mode"),
        ({"checkpoint_interval": 0}, "checkpoint_interval"),
        ({"checkpoint_interval": "sometimes"}, "checkpoint_interval"),
        ({"shard_size": 0}, "shard_size"),
        ({"raw_fit_per_bit": 0.0}, "raw_fit_per_bit"),
        ({"raw_fit_per_bit": "big"}, "raw_fit_per_bit"),
        ({"name": 7}, "name"),
    ])
    def test_bad_field_raises_config_error(self, kwargs, needle):
        with pytest.raises(ConfigError) as excinfo:
            CampaignSpec(**kwargs)
        assert needle in str(excinfo.value)
        assert "Traceback" not in str(excinfo.value)

    def test_registry_errors_name_valid_choices(self):
        with pytest.raises(ConfigError, match="simt_stack"):
            CampaignSpec(structures=("l2_cache",))
        with pytest.raises(ConfigError, match="transient"):
            CampaignSpec(fault_model="gamma_ray")
        with pytest.raises(ConfigError, match="matrixMul"):
            CampaignSpec(workloads=("nosuchbench",))

    def test_normalization(self):
        spec = CampaignSpec(gpus="gtx480", workloads="vectoradd",
                            structures="register_file",
                            ace_mode="lane_masked", raw_fit_per_bit=1)
        assert spec.gpus == ("gtx480",)
        assert spec.workloads == ("vectoradd",)
        assert spec.structures == ("register_file",)
        assert spec.ace_mode is AceMode.LANE_MASKED
        assert spec.raw_fit_per_bit == 1.0
        # structures dedupe, order kept
        spec = CampaignSpec(structures=("local_memory", "register_file",
                                        "local_memory"))
        assert spec.structures == ("local_memory", "register_file")

    def test_gpu_config_objects_accepted(self):
        spec = CampaignSpec(gpus=(MINI_NVIDIA, MINI_AMD))
        assert spec.resolved_gpus() == [MINI_NVIDIA, MINI_AMD]

    def test_resolution_defaults(self):
        spec = CampaignSpec()
        assert spec.resolved_structures() == ("register_file",
                                              "local_memory")
        assert len(spec.resolved_gpus()) == 4
        assert len(spec.resolved_workloads()) == 10
        assert spec.resolved_samples() >= 1
        assert spec.resolved_scale() in ("tiny", "small", "default")
        assert spec.resolved_shard_size() >= 1

    def test_single_requires_one_cell(self):
        with pytest.raises(ConfigError, match="exactly one"):
            CampaignSpec().single()
        config, workload = CampaignSpec(
            gpus=(MINI_NVIDIA,), workloads=("vectoradd",)).single()
        assert config is MINI_NVIDIA and workload == "vectoradd"

    def test_replace_revalidates_and_rejects_unknown(self):
        spec = CampaignSpec(samples=5)
        assert spec.replace(samples=9).samples == 9
        with pytest.raises(ConfigError, match="samples"):
            spec.replace(samples=0)
        with pytest.raises(ConfigError, match="valid keys"):
            spec.replace(smaples=9)


class TestSerialization:
    """to_dict/from_dict and TOML/JSON files round-trip exactly."""

    SPEC = CampaignSpec(
        gpus=("gtx480", "hd7970"), workloads=("vectoradd", "histogram"),
        scale="tiny", samples=12, seed=3, scheduler="gto",
        structures=("register_file", "simt_stack"), fault_model="mbu",
        ace_mode="lane_masked", checkpoint_interval=500, shard_size=7,
        raw_fit_per_bit=2e-3, name="round trip")

    def test_dict_round_trip(self):
        assert CampaignSpec.from_dict(self.SPEC.to_dict()) == self.SPEC
        assert CampaignSpec.from_dict({}) == CampaignSpec()

    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "spec.toml"
        self.SPEC.to_file(path)
        assert CampaignSpec.from_file(path) == self.SPEC

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        self.SPEC.to_file(path)
        assert CampaignSpec.from_file(path) == self.SPEC

    def test_auto_checkpoint_round_trips(self, tmp_path):
        spec = CampaignSpec(checkpoint_interval="auto")
        path = tmp_path / "auto.toml"
        spec.to_file(path)
        assert CampaignSpec.from_file(path).checkpoint_interval == "auto"

    def test_embedded_gpu_config_json_round_trip(self, tmp_path):
        spec = CampaignSpec(gpus=(MINI_NVIDIA,), workloads=("vectoradd",))
        path = tmp_path / "custom.json"
        spec.to_file(path)
        loaded = CampaignSpec.from_file(path)
        assert loaded.gpus == (MINI_NVIDIA,)

    def test_embedded_gpu_config_rejected_in_toml(self, tmp_path):
        spec = CampaignSpec(gpus=(MINI_NVIDIA,))
        with pytest.raises(ConfigError, match="json"):
            spec.to_file(tmp_path / "custom.toml")

    def test_unknown_key_names_key_and_choices(self):
        with pytest.raises(ConfigError) as excinfo:
            CampaignSpec.from_dict({"smaples": 5})
        message = str(excinfo.value)
        assert "smaples" in message and "valid keys" in message
        assert "samples" in message

    def test_unknown_key_in_file_names_file(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('smaples = 5\n')
        with pytest.raises(ConfigError, match="smaples"):
            CampaignSpec.from_file(path)

    def test_missing_file_and_bad_extension(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            CampaignSpec.from_file(tmp_path / "nope.toml")
        path = tmp_path / "spec.yaml"
        path.write_text("samples: 5\n")
        with pytest.raises(ConfigError, match="yaml"):
            CampaignSpec.from_file(path)
        with pytest.raises(ConfigError, match="yaml"):
            CampaignSpec().to_file(tmp_path / "out.yaml")

    def test_parse_error_is_config_error(self, tmp_path):
        path = tmp_path / "torn.toml"
        path.write_text("samples = [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            CampaignSpec.from_file(path)


class TestSweep:
    def test_expansion_count_and_order(self):
        base = CampaignSpec(name="base")
        children = base.sweep(fault_model=["transient", "stuck_at"],
                              seed=range(3))
        assert len(children) == 6
        # Row-major: last axis (seed) varies fastest.
        assert [c.seed for c in children] == [0, 1, 2, 0, 1, 2]
        assert [c.fault_model for c in children[:3]] == ["transient"] * 3
        assert children[0].name == "base: fault_model=transient, seed=0"

    def test_structures_axis_accepts_sets_and_scalars(self):
        children = CampaignSpec().sweep(
            structures=[("register_file", "local_memory"), "simt_stack"])
        assert children[0].structures == ("register_file", "local_memory")
        assert children[1].structures == ("simt_stack",)
        assert children[1].name == "structures=simt_stack"

    def test_children_are_validated(self):
        with pytest.raises(ConfigError, match="fault_model"):
            CampaignSpec().sweep(fault_model=["transient", "gamma_ray"])

    def test_bad_axis_errors(self):
        with pytest.raises(ConfigError, match="at least one axis"):
            expand_sweep(CampaignSpec(), {})
        with pytest.raises(ConfigError, match="valid axes"):
            CampaignSpec().sweep(nosuch=[1, 2])
        with pytest.raises(ConfigError, match="no values"):
            CampaignSpec().sweep(seed=[])
        with pytest.raises(ConfigError, match="valid axes"):
            CampaignSpec().sweep(name=["a"])

    def test_scalar_axis_value_allowed(self):
        children = CampaignSpec().sweep(fault_model="stuck_at")
        assert len(children) == 1
        assert children[0].fault_model == "stuck_at"


SPEC = CampaignSpec(gpus=(MINI_NVIDIA,), workloads=("vectoradd",),
                    scale="tiny", samples=6, seed=5)


class TestFingerprintStability:
    """Every expression of one campaign yields one set of fingerprints."""

    def test_cell_fingerprints_match_store_records(self, tmp_path):
        import json
        store = tmp_path / "store.jsonl"
        run_campaign(SPEC, store=store)
        recorded = {json.loads(line)["fp"]
                    for line in store.read_text().splitlines()}
        fps = cell_fingerprints(SPEC)
        assert fps and set(fps.values()) <= recorded

    def test_spec_file_expression_matches_in_memory_spec(self, tmp_path):
        # A spec file (named chips resolve to the same scaled configs).
        spec = CampaignSpec(gpus=("gtx480",), workloads=("vectoradd",),
                            scale="tiny", samples=4)
        path = tmp_path / "cell.toml"
        spec.to_file(path)
        loaded = CampaignSpec.from_file(path)
        assert cell_fingerprints(loaded) == cell_fingerprints(spec)


class TestEntryPoints:
    """Every campaign entry point takes a CampaignSpec and nothing else."""

    @pytest.mark.parametrize("entry_point", [
        run_cell, run_campaign,
        *(functools.partial(run_figure, name) for name in FIGURES),
    ], ids=["run_cell", "run_campaign",
            *(f"run_figure-{name}" for name in FIGURES)])
    def test_non_spec_positional_is_config_error(self, entry_point):
        for not_a_spec in ("gtx480", [MINI_NVIDIA], MINI_NVIDIA):
            with pytest.raises(ConfigError, match="CampaignSpec"):
                entry_point(not_a_spec)


class TestHarnessSpecPath:
    """The figures consume specs and fill their own defaults."""

    def test_fig2_defaults_local_memory_and_subset(self):
        spec = CampaignSpec(gpus=(MINI_NVIDIA,), workloads=("histogram",),
                            scale="tiny", samples=2)
        cells, report = run_figure("fig2", spec)
        assert [c.workload for c in cells] == ["histogram"]
        assert "Local Memory" in report
        # Unset workloads resolve to the local-memory subset.
        bare = CampaignSpec(gpus=(MINI_NVIDIA,), scale="tiny", samples=2)
        cells, _ = run_figure("fig2", bare.replace(workloads=None))
        assert {c.workload for c in cells} == \
            set(local_memory_workloads("tiny"))

    def test_unknown_figure_is_config_error(self):
        with pytest.raises(ConfigError, match="known: fig1"):
            run_figure("fig4", CampaignSpec())

    def test_model_compare_spec_and_subset(self):
        spec = CampaignSpec(gpus=(MINI_NVIDIA,), workloads=("vectoradd",),
                            scale="tiny", samples=2)
        cells, report = run_figure("models", spec,
                                   fault_models=["stuck_at"])
        assert [c.fault_model for c in cells] == ["stuck_at"]
        assert "stuck_at" in report
        assert "models: stuck_at)" in report  # the only compared model


class TestRunSweep:
    def test_sweep_shares_store_and_goldens(self, tmp_path):
        clear_memory_cache()  # no golden left resident by earlier tests
        store = tmp_path / "sweep.jsonl"
        base = SPEC.replace(samples=4, name="mini")
        stats = CampaignStats()
        result = run_sweep(base, {"fault_model": ["transient", "stuck_at"]},
                           store=store, stats=stats)
        assert len(result.runs) == 2
        assert [run.spec.fault_model for run in result.runs] == \
            ["transient", "stuck_at"]
        # One golden simulation serves both children: the second
        # child resolves the golden the first left resident.
        assert stats.by_kind["golden"] == {"cached": 1, "executed": 1}
        assert result.cells and len(result.cells) == 2
        summary = result.summary()
        assert "fault_model=stuck_at" in summary
        assert "Sweep summary" in summary

    def test_sweep_rerun_is_fully_cached(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        base = SPEC.replace(samples=4)
        axes = {"seed": [0, 1]}
        run_sweep(base, axes, store=store)
        stats = CampaignStats()
        run_sweep(base, axes, store=store, stats=stats)
        assert stats.executed == 0
