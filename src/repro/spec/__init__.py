"""``repro.spec`` — the declarative campaign API.

One typed, frozen, serializable :class:`CampaignSpec` object is the
single configuration surface for every layer of the reproduction:

* ``run_campaign(spec, store=..., workers=...)``, the one campaign
  path, and its wrapper ``run_cell(spec)`` (one cell, inline)
* the figures (``run_figure(name, spec)`` over the
  ``repro.experiments.figures.FIGURES`` table: fig1, fig2, fig3,
  control, and models, a fault-model sweep)
* spec files (``CampaignSpec.from_file`` / ``to_file``, TOML or JSON)
  and the ``repro-experiments run path/to/spec.toml`` CLI
* sweeps (``spec.sweep(fault_model=[...], seed=range(3))`` /
  :func:`run_sweep`) sharing one result store and golden cache

Each field's check, command-line text parser, help and figure flag
is its :data:`SPEC_TABLE` entry. Spec fields map one-to-one onto the engine's job-fingerprint
parameters, so result stores written before the spec API resume with
zero jobs executed.
"""

from repro.spec.campaign import (
    SPEC_FIELDS,
    SPEC_TABLE,
    CampaignSpec,
    SpecField,
    spec_field,
)
from repro.spec.defaults import (
    ENV_SAMPLES,
    ENV_SCALE,
    default_samples,
    default_scale,
)
from repro.spec.files import load_spec, save_spec, spec_from_dict, spec_to_dict
from repro.spec.sweep import SweepResult, SweepRun, expand_sweep, run_sweep

__all__ = [
    "CampaignSpec",
    "SPEC_FIELDS",
    "SPEC_TABLE",
    "SpecField",
    "SweepResult",
    "SweepRun",
    "default_samples",
    "default_scale",
    "ENV_SAMPLES",
    "ENV_SCALE",
    "expand_sweep",
    "load_spec",
    "save_spec",
    "spec_field",
    "spec_from_dict",
    "spec_to_dict",
    "run_sweep",
]
