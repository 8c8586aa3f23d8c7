"""Benchmark registry.

The ten benchmarks of the paper (7 from the CUDA SDK / AMD APP SDK
overlap, 3 from Rodinia), in the left-to-right order of the figures.
Every benchmark exists in both ISAs; ``scale`` selects input sizes
("tiny" for unit tests, "small" for CI campaigns, "default" for
paper-style runs).
"""

from __future__ import annotations

import importlib
from functools import lru_cache

from repro.errors import ConfigError
from repro.kernels.workload import Workload

#: Figure order from the paper.
KERNEL_NAMES = (
    "backprop",
    "dwtHaar1D",
    "gaussian",
    "histogram",
    "kmeans",
    "matrixMul",
    "reduction",
    "scan",
    "transpose",
    "vectoradd",
)

_MODULES = {
    "backprop": "repro.kernels.backprop",
    "dwtHaar1D": "repro.kernels.dwt_haar1d",
    "gaussian": "repro.kernels.gaussian",
    "histogram": "repro.kernels.histogram",
    "kmeans": "repro.kernels.kmeans",
    "matrixMul": "repro.kernels.matrixmul",
    "reduction": "repro.kernels.reduction",
    "scan": "repro.kernels.scan",
    "transpose": "repro.kernels.transpose",
    "vectoradd": "repro.kernels.vectoradd",
}

SCALES = ("tiny", "small", "default")


@lru_cache(maxsize=None)
def get_workload(name: str, scale: str = "default") -> Workload:
    """Build (and cache) one benchmark instance.

    Workloads are deterministic in (name, scale), so caching is safe
    and keeps repeated campaign cells cheap.
    """
    if name not in _MODULES:
        raise ConfigError(
            f"unknown benchmark {name!r}; known: {', '.join(KERNEL_NAMES)}"
        )
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
    module = importlib.import_module(_MODULES[name])
    return module.build(scale)


def list_workloads(scale: str = "default") -> list[Workload]:
    """All ten benchmarks in figure order."""
    return [get_workload(name, scale) for name in KERNEL_NAMES]
