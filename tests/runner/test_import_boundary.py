"""The control plane loads no simulator.

``repro.api``, the CLI, the experiment registry, the runner, specs and
sweeps import neither numpy nor any simulator module; the simulator
loads when a runner first runs. Each probe runs in a fresh interpreter,
because this test process has long since imported everything.
"""

import fnmatch
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runner.api import record_for
from repro.runner.cache import ResultCache

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules that only a simulating run may load.
SIMULATOR = (
    "numpy", "numpy.*",
    "repro.sim", "repro.sim.*",
    "repro.sm", "repro.sm.*",
    "repro.mp", "repro.mp.*",
    "repro.memory.dataspace",
    "repro.check", "repro.check.*",
    "repro.trace", "repro.trace.*",
    "repro.apps.*.common", "repro.apps.*.mp", "repro.apps.*.sm",
)

#: What every ``repro`` process pays before its first useful step: the
#: facade, the registry and the YAML specs.
SETUP = (
    "from repro import api\n"
    "from repro.core.experiments import EXPERIMENTS\n"
    "api.specs()\n"
)


def simulator_modules(code: str, tmp_path, patterns=SIMULATOR) -> list:
    """The simulator modules (or other ``patterns``) a fresh
    interpreter holds after ``code``."""
    probe = code + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return [m for m in loaded if any(fnmatch.fnmatchcase(m, p) for p in patterns)]


@pytest.mark.parametrize("code", [SETUP, "import repro.cli\n"], ids=["setup", "cli"])
def test_control_plane_loads_no_simulator(code, tmp_path):
    assert simulator_modules(code, tmp_path) == []


def test_warm_run_loads_no_simulator(tmp_path):
    record_for("validation", cache=ResultCache(tmp_path / "cache"))
    warm_run = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    assert main(['run', 'validation']) == 0\n"
        "assert '(cached)' in err.getvalue(), err.getvalue()\n"
    )
    assert simulator_modules(warm_run, tmp_path) == []


def test_result_cache_loads_no_server(tmp_path):
    """The cache needs only the blob store, and ``repro.serve``
    re-exports nothing, so a cache never loads the HTTP server."""
    loaded = simulator_modules(
        "from repro.runner.cache import ResultCache\nResultCache()\n",
        tmp_path, patterns=("repro.serve", "repro.serve.*"),
    )
    assert loaded == ["repro.serve", "repro.serve.store"]


def test_top_level_machine_names_load_on_first_use(tmp_path):
    loaded = simulator_modules(
        "from repro import MachineParams, MpMachine, SmMachine\n", tmp_path
    )
    assert {"numpy", "repro.mp.machine", "repro.sm.machine"} <= set(loaded)
