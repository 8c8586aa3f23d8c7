"""Environment-backed campaign defaults.

These knobs let test and benchmark runs be resized without code edits;
they are the resolution targets for the ``None`` defaults of
:class:`repro.spec.CampaignSpec`.

This module is deliberately import-free within the package so both
``repro.spec`` and ``repro.reliability`` (whose package namespace also
exports the helpers) can load it without cycles.
"""

from __future__ import annotations

import os

#: Environment knobs so test/bench runs can be resized without code edits.
ENV_SAMPLES = "REPRO_FI_SAMPLES"
ENV_SCALE = "REPRO_SCALE"


def default_samples(fallback: int = 150) -> int:
    """FI samples per structure (env override REPRO_FI_SAMPLES)."""
    return int(os.environ.get(ENV_SAMPLES, fallback))


def default_scale(fallback: str = "small") -> str:
    """Workload scale (env override REPRO_SCALE)."""
    return os.environ.get(ENV_SCALE, fallback)
