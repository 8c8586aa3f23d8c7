"""The spec-field table: one entry per CampaignSpec field drives every
surface that reads a field — construction, spec files, ``--set``,
``--axis``, the figure flags and ``serve --lease-ttl``.

Pinned here: the table covers the dataclass exactly once per field, the
command-line surface keeps its option strings, the figure flags keep
their defaults, and every number field refuses non-finite values on
each surface with a message naming the field (a NaN lease TTL would
never expire, so a killed worker's lease would never be re-queued).
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import _build_parser, _spec_from_args, main
from repro.spec import SPEC_TABLE, CampaignSpec

_FIGURE = (
    "--checkpoint-interval", "--fault-model", "--gpus", "--help",
    "--no-checkpoints", "--no-suffix-memo", "--out", "--quiet", "--resume",
    "--samples", "--scale", "--seed", "--shard-size", "--structures",
    "--workers", "--workloads", "-h",
)
_RUN = ("--help", "--no-profile", "--no-telemetry", "--out", "--profile",
        "--quiet", "--resume", "--set", "--telemetry", "--workers", "-h")

#: Every subcommand's option strings ("" is the top-level parser).
CLI_SURFACE = {
    "": ("--help", "--list-fault-models", "--list-gpus", "--list-structures",
         "--list-workloads", "-h"),
    **{name: _FIGURE
       for name in ("fig1", "fig2", "fig3", "control", "models", "all")},
    "run": _RUN,
    "sweep": tuple(sorted(("--axis", *_RUN))),
    "status": ("--follow", "--help", "--interval", "--once", "--telemetry",
               "-h"),
    "serve": ("--help", "--host", "--lease-ttl", "--no-profile",
              "--no-telemetry", "--port", "--profile", "--quiet", "--set",
              "--store", "--telemetry", "-h"),
    "worker": ("--give-up", "--help", "--id", "--poll", "--quiet",
               "--segment-store", "-h"),
    "submit": ("--help", "--set", "--url", "-h"),
    "profile": ("--help", "--telemetry", "-h"),
}

NON_FINITE = ("nan", "inf", "-inf")


def _options(parser: argparse.ArgumentParser) -> tuple:
    return tuple(sorted(option for action in parser._actions
                        for option in action.option_strings))


def test_cli_surface_is_pinned():
    parser = _build_parser()
    surface = {"": _options(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            surface.update((name, _options(sub))
                           for name, sub in action.choices.items())
    assert surface == CLI_SURFACE


def test_every_spec_field_has_exactly_one_table_entry():
    assert [entry.name for entry in SPEC_TABLE] == \
        [field.name for field in dataclasses.fields(CampaignSpec)]


class TestFigureFlags:
    def _spec(self, *argv):
        return _spec_from_args(_build_parser().parse_args(["fig1", *argv]))

    def test_defaults(self):
        spec = self._spec()
        assert spec == CampaignSpec(checkpoint_interval="auto")

    def test_values_read_through_the_table(self):
        spec = self._spec("--gpus", "gtx480", "hd7970", "--seed", "3",
                          "--structures", "local_memory,register_file",
                          "local_memory", "--fault-model", "stuck_at",
                          "--checkpoint-interval", "200",
                          "--no-suffix-memo")
        assert spec.gpus == ("gtx480", "hd7970")
        assert spec.seed == 3
        assert spec.structures == ("local_memory", "register_file")
        assert spec.fault_model == "stuck_at"
        assert spec.checkpoint_interval == 200
        assert spec.suffix_memo is False
        assert self._spec("--no-checkpoints").checkpoint_interval is None

    def test_bad_value_names_flag_and_field(self):
        with pytest.raises(ConfigError) as excinfo:
            self._spec("--shard-size", "lots")
        assert str(excinfo.value).startswith(
            "--shard-size: spec field 'shard_size':")


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("field", ["raw_fit_per_bit", "lease_ttl_s"])
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_constructor_rejects(self, field, text):
        with pytest.raises(ConfigError) as excinfo:
            CampaignSpec(**{field: float(text)})
        assert str(excinfo.value).startswith(f"spec field {field!r}:")

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text('gpus = ["gtx480"]\nworkloads = ["vectoradd"]\n'
                        'scale = "tiny"\nsamples = 4\n')
        return path

    @pytest.mark.parametrize("field", ["raw_fit_per_bit", "lease_ttl_s"])
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_run_set_exits_2(self, spec_path, capsys, field, text):
        assert main(["run", str(spec_path), "--set", f"{field}={text}"]) == 2
        err = capsys.readouterr().err
        assert f"spec field {field!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["raw_fit_per_bit", "lease_ttl_s"])
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_spec_file_exits_2(self, tmp_path, capsys, field, text):
        path = tmp_path / "bad.toml"
        path.write_text(f"{field} = {text}\n")  # TOML's own nan/inf
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"spec field {field!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("ttl", ["0", "-1", "nan"])
def test_serve_lease_ttl_checked_before_binding(ttl, tmp_path, capsys,
                                                monkeypatch):
    import repro.engine.service as service

    def no_service(*args, **kwargs):
        raise AssertionError("the coordinator started")

    monkeypatch.setattr(service, "CampaignService", no_service)
    spec = tmp_path / "tiny.toml"
    spec.write_text('gpus = ["gtx480"]\nworkloads = ["vectoradd"]\n')
    store = tmp_path / "store.jsonl"
    assert main(["serve", str(spec), "--store", str(store),
                 "--lease-ttl", ttl]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lease-ttl: spec field 'lease_ttl_s':")
    assert not store.exists()
