"""CLI argument validation: friendly errors instead of deep tracebacks."""

import pytest

from repro.experiments.runner import main


class TestNumericValidation:
    @pytest.mark.parametrize("argv,needle", [
        (["fig1", "--samples", "0"], "--samples"),
        (["fig1", "--samples", "-3"], "--samples"),
        (["fig1", "--seed", "-1"], "--seed"),
        (["fig1", "--workers", "0"], "--workers"),
        (["fig1", "--shard-size", "0"], "--shard-size"),
        (["fig1", "--checkpoint-interval", "0"], "--checkpoint-interval"),
        (["fig1", "--checkpoint-interval", "-5"], "--checkpoint-interval"),
    ])
    def test_bad_value_exits_2_with_message(self, argv, needle, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err
        assert "Traceback" not in err

    def test_no_checkpoints_conflicts_with_interval(self, capsys):
        assert main(["fig1", "--no-checkpoints",
                     "--checkpoint-interval", "100"]) == 2
        err = capsys.readouterr().err
        assert "mutually exclusive" in err

    def test_unknown_gpu_is_friendly(self, capsys):
        assert main(["fig1", "--gpus", "nosuchchip"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestStructuresFlag:
    def test_unknown_structure_is_friendly(self, capsys):
        assert main(["fig1", "--structures", "l2_cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "l2_cache" in err and "simt_stack" in err
        assert "Traceback" not in err

    def test_empty_structures_is_friendly(self, capsys):
        assert main(["fig1", "--structures", ","]) == 2
        err = capsys.readouterr().err
        assert "--structures" in err

    def test_list_structures(self, capsys):
        assert main(["--list-structures"]) == 0
        out = capsys.readouterr().out
        for name in ("register_file", "local_memory", "simt_stack",
                     "predicate_file", "scheduler_state"):
            assert name in out

    def test_tiny_control_campaign_runs(self, capsys, tmp_path):
        argv = ["control", "--samples", "4", "--scale", "tiny",
                "--gpus", "gtx480",
                "--structures", "simt_stack,predicate_file,scheduler_state",
                "--workloads", "vectoradd",
                "--out", str(tmp_path / "control.csv")]
        assert main(argv) == 0
        assert (tmp_path / "control.csv").exists()
        out = capsys.readouterr().out
        assert "simt_stack" in out


class TestHappyPaths:
    def test_listings_exit_zero(self, capsys):
        assert main(["--list-fault-models"]) == 0
        out = capsys.readouterr().out
        assert "transient" in out and "stuck_at" in out and "mbu" in out
        assert main(["--list-gpus"]) == 0
        assert main(["--list-workloads"]) == 0

    def test_missing_experiment_exits_2(self, capsys):
        assert main([]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_tiny_checkpointed_campaign_runs(self, capsys, tmp_path):
        argv = ["fig1", "--samples", "4", "--scale", "tiny",
                "--gpus", "gtx480", "--workloads", "vectoradd",
                "--checkpoint-interval", "200",
                "--out", str(tmp_path / "fig1.csv")]
        assert main(argv) == 0
        assert (tmp_path / "fig1.csv").exists()
