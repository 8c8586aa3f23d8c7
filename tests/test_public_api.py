"""The curated top-level API: everything in ``repro.__all__`` resolves.

Examples and downstream users import from ``repro`` directly; a name
that disappears from the package root is an API break this test turns
into a failure with the missing name spelled out.
"""

import ast
from pathlib import Path

import repro

EXAMPLES = Path(repro.__file__).resolve().parents[2] / "examples"


def test_every_public_name_resolves():
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert not missing


def test_key_surfaces_are_exported():
    for name in (
        # campaign API
        "CampaignSpec", "run_campaign", "run_sweep", "run_cell",
        "run_matrix", "ResultStore", "cell_fingerprints",
        # distributed campaign service
        "CampaignService", "CampaignWorker", "RemoteBackend",
        "ExecutionBackend", "CoordinatorUnreachable",
        # observability
        "TelemetrySink", "MemoryTelemetrySink", "JsonlTelemetrySink",
        "CallbackTelemetrySink", "TelemetryHub", "load_telemetry",
        "load_telemetry_events", "telemetry_path_for_store",
        # profiling
        "ProfileCollector", "TelemetryTail", "aggregate_profiles",
        "format_profile", "top_cost_centers",
        # access traces
        "TraceSink", "CompositeSink", "EventRecorder", "JsonlTraceSink",
        "read_trace_events",
        # reports
        "format_avf_figure", "format_epf_figure", "write_cells_csv",
    ):
        assert name in repro.__all__, name


def test_examples_use_only_the_public_api():
    """``examples/`` must not deep-import repro submodules, and every
    name they import from ``repro`` must be in ``repro.__all__`` — so a
    retired name fails here, not only when someone runs the example."""
    allowed = {"repro"}
    public = set(repro.__all__)
    for path in sorted(EXAMPLES.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                assert node.module in allowed, \
                    f"{path.name} deep-imports {node.module}"
                for alias in node.names:
                    assert alias.name in public, \
                        f"{path.name} imports {alias.name}, not in repro.__all__"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        assert alias.name in allowed, \
                            f"{path.name} deep-imports {alias.name}"
