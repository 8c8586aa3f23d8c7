"""Dependency guards: what the package imports, and when.

Every fault injection of a campaign runs in a fresh process, so what the
campaign path imports is paid for once per process. scipy costs about a
second to import and only reports and analysis use it; networkx is not
a dependency at all. The first test pins both off the campaign path;
the second pins every third-party import of ``src/repro`` to a declared
dependency in ``pyproject.toml``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Imports the campaign modules, then launches one tiny SASS kernel and
#: one tiny SI kernel (``backprop``'s SASS build has a divergent branch,
#: so its launch builds a reconvergence table), then prints what loaded.
CAMPAIGN_PATH = """
import sys

import repro
import repro.engine.matrix
import repro.engine.service
import repro.experiments.runner
import repro.sim.sass_core
import repro.sim.si_core
from repro.arch.scaling import get_scaled_gpu
from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.sim.gpu import Gpu

for chip in ("gtx480", "hd7970"):
    config = get_scaled_gpu(chip)
    result = run_workload(Gpu(config), get_workload("backprop", "tiny"))
    assert result.cycles > 0, chip
print(" ".join(sorted(name for name in ("scipy", "networkx") if name in sys.modules)))
"""


def test_campaign_path_loads_no_scipy_or_networkx():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", CAMPAIGN_PATH], cwd=ROOT,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def _imported_packages(path: Path) -> set[str]:
    packages = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep)[0].lower()
                for dep in project["dependencies"]}
    undeclared = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for package in _imported_packages(path):
            if (package in sys.stdlib_module_names or package == "repro"
                    or package.lower() in declared):
                continue
            undeclared.setdefault(package, []).append(
                str(path.relative_to(ROOT)))
    assert undeclared == {}
