"""The cold-path module budget: short commands import only what they run.

Each case starts a fresh interpreter, runs one command through
``repro.cli.main`` and reports every module it left in
``sys.modules``.  None may hold numpy, the batch kernel or the lint
runner, and of ``repro.hardware`` only the numpy-free modules the
command itself evaluates -- the weight the package's lazy exports and
the CLI's per-verb imports keep off these commands.  Module names, not
timings, so the check is exact on any machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.store import SNAPSHOT_NAME

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules no cold command may load.
BUDGET = ("numpy", "repro.core.kernel", "repro.analysis.lint.runner")

#: Imports the CLI, runs one command (if any) and prints the loaded
#: modules as the last line.
PROBE = """
import json, sys
from repro.cli import main
argv = json.loads(sys.argv[1])
if argv:
    try:
        main(argv)
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def one_task_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("cold") / "store"
    assert main(["grid", "TTT", "--benchmarks", "mcf", "--cores", "0",
                 "--campaigns", "1", "--store", str(store)]) == 0
    return str(store)


@pytest.mark.parametrize("argv,hardware", [
    ([], set()),
    (["--version"], set()),
    # A store manifest carries a MachineSpec, but a spec without
    # extension components never touches the component-codec registry,
    # whose built-in codecs (repro.hardware.dynamics) load on first use.
    (["status", "{store}"], set()),
    (["dash", "{store}", "--once"], set()),
    # Text answers come from the Vmin and severity indexes alone: no
    # feature rows, so no numpy and no program profiler.
    (["fleet", "query", "{store}", "--benchmark", "mcf", "--core", "0"],
     set()),
    # The claims evaluate the paper's power model.
    (["claims"], {"repro.hardware", "repro.hardware.corners",
                  "repro.hardware.clocking", "repro.hardware.domains",
                  "repro.hardware.power"}),
], ids=["import repro.cli", "--version", "status", "dash", "fleet query",
        "claims"])
def test_cold_commands_stay_within_budget(argv, hardware, one_task_store):
    loaded = loaded_modules([arg.format(store=one_task_store) for arg in argv])
    assert loaded.isdisjoint(BUDGET)
    assert {m for m in loaded if m.startswith("repro.hardware")} <= hardware


@pytest.mark.parametrize("snapshot", [False, True],
                         ids=["no snapshot", "snapshot"])
@pytest.mark.parametrize("argv", [
    ["status", "{store}"],
    ["dash", "{store}", "--once"],
    ["fleet", "query", "{store}", "--benchmark", "mcf", "--core", "0"],
], ids=["status", "dash", "fleet query"])
def test_store_reads_stay_within_budget_either_way(argv, snapshot,
                                                   one_task_store):
    """The validating open and the count-snapshot open load the same
    light modules; a read the snapshot covers rewrites nothing."""
    path = Path(one_task_store) / SNAPSHOT_NAME
    if snapshot:
        assert main(["status", one_task_store]) == 0  # lays it down
        before = path.read_bytes()
    else:
        path.unlink(missing_ok=True)
    loaded = loaded_modules([arg.format(store=one_task_store) for arg in argv])
    assert loaded.isdisjoint(BUDGET)
    assert not {m for m in loaded if m.startswith("repro.hardware")}
    assert path.exists()
    if snapshot:
        assert path.read_bytes() == before
