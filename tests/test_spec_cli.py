"""The spec-file CLI surface: `run SPEC --set ...` and `sweep SPEC --axis ...`.

Error-path contract (matching `--structures` from the figure
commands): unknown keys in a spec file and unknown `--set`/`--axis`
keys must exit 2 with a message naming the offending key and the
valid choices — never a traceback.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import main

TINY_SPEC = """\
name = "cli tiny"
gpus = ["gtx480"]
workloads = ["vectoradd"]
scale = "tiny"
samples = 4
structures = ["register_file"]
"""


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(TINY_SPEC)
    return path


class TestRunSubcommand:
    def test_happy_path_runs_and_writes_csv(self, spec_path, tmp_path,
                                            capsys):
        out = tmp_path / "cells.csv"
        assert main(["run", str(spec_path), "--quiet",
                     "--out", str(out)]) == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "cli tiny" in captured.err
        assert "register_file" in captured.out

    def test_set_override_applies(self, spec_path, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        assert main(["run", str(spec_path), "--quiet",
                     "--set", "samples=6",
                     "--resume", str(store)]) == 0
        err = capsys.readouterr().err
        assert "samples=6" in err

    def test_unknown_set_key_exits_2_naming_choices(self, spec_path,
                                                    capsys):
        # ``backend`` chose an interpreter once; it is no spec field now.
        for key, value in (("nosuch", "3"), ("backend", "python")):
            assert main(["run", str(spec_path),
                         "--set", f"{key}={value}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"unknown spec key {key!r}" in err
            assert "valid keys" in err and "samples" in err
            assert "Traceback" not in err

    def test_bad_set_value_exits_2(self, spec_path, capsys):
        assert main(["run", str(spec_path), "--set", "samples=lots"]) == 2
        err = capsys.readouterr().err
        assert "samples" in err and "lots" in err

    def test_malformed_set_exits_2(self, spec_path, capsys):
        assert main(["run", str(spec_path), "--set", "samples"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_key_in_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        for key, value in (("smaples", "4"), ("backend", '"python"')):
            path.write_text(f"{key} = {value}\n")
            assert main(["run", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"unknown spec key {key!r}" in err
            assert "valid keys" in err and "Traceback" not in err

    def test_bad_field_value_in_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text('gpus = ["nosuchchip"]\n')
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nosuchchip" in err and "Traceback" not in err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.toml")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unexposed_anchor_cells_omitted_not_zeroed(self, tmp_path,
                                                       capsys):
        # simt_stack exists on sass chips only; an SI chip's cells must
        # be omitted from the table, not rendered as a fake 0.000 AVF.
        path = tmp_path / "control.toml"
        path.write_text(
            'gpus = ["gtx480", "hd7970"]\n'
            'workloads = ["vectoradd"]\n'
            'scale = "tiny"\n'
            'samples = 4\n'
            'structures = ["simt_stack", "scheduler_state"]\n')
        assert main(["run", str(path), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "HD Radeon 7970" not in captured.out
        assert "GeForce GTX 480" in captured.out
        assert "omitted" in captured.err and "simt_stack" in captured.err

    def test_checked_in_smoke_spec_loads(self):
        # The dist-smoke CI job serves this checked-in spec.
        from pathlib import Path
        from repro.spec import CampaignSpec
        root = Path(__file__).resolve().parent.parent
        spec = CampaignSpec.from_file(
            root / "examples" / "specs" / "smoke_fig1.toml")
        assert spec.gpus == ("gtx480",)
        assert spec.structures == ("register_file",)
        for name in ("full_datapath.toml", "full_control.toml",
                     "sweep_models.toml"):
            CampaignSpec.from_file(root / "examples" / "specs" / name)


class TestSweepSubcommand:
    def test_two_axis_sweep_prints_summary(self, spec_path, tmp_path,
                                           capsys):
        store = tmp_path / "sweep.jsonl"
        assert main(["sweep", str(spec_path), "--quiet",
                     "--axis", "fault_model=transient,stuck_at",
                     "--axis", "seed=0..1",
                     "--resume", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Sweep summary" in out
        assert "fault_model=stuck_at, seed=1" in out
        assert out.count("seed=") >= 4
        assert store.exists()

    def test_axis_required(self, spec_path, capsys):
        assert main(["sweep", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "--axis" in err and "valid keys" in err

    def test_unknown_axis_exits_2(self, spec_path, capsys):
        assert main(["sweep", str(spec_path),
                     "--axis", "nosuch=1,2"]) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err and "valid keys" in err

    def test_duplicate_axis_exits_2(self, spec_path, capsys):
        assert main(["sweep", str(spec_path),
                     "--axis", "seed=0,1", "--axis", "seed=5"]) == 2
        assert "duplicate sweep axis" in capsys.readouterr().err

    def test_bad_range_exits_2(self, spec_path, capsys):
        assert main(["sweep", str(spec_path),
                     "--axis", "seed=5..2"]) == 2
        assert "empty range" in capsys.readouterr().err

    def test_structures_axis_plus_join(self, spec_path, capsys):
        assert main(["sweep", str(spec_path), "--quiet",
                     "--axis",
                     "structures=register_file+local_memory,register_file",
                     ]) == 0
        out = capsys.readouterr().out
        assert "structures=register_file+local_memory" in out
