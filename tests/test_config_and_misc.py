"""Study configuration, PMU unit behaviour, and package surface."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import PAPER_STUDY, QUICK_STUDY, StudyConfig
from repro.errors import ConfigurationError, MachineStateError, UnknownCounterError
from repro.hardware.pmu import PerformanceMonitoringUnit
from repro.workloads import get_benchmark


class TestStudyConfig:
    def test_paper_study_is_the_full_grid(self):
        assert PAPER_STUDY.chips == ("TTT", "TFF", "TSS")
        assert len(PAPER_STUDY.benchmarks) == 10
        assert PAPER_STUDY.cores == tuple(range(8))
        assert PAPER_STUDY.framework.campaigns == 10
        assert 2400 in PAPER_STUDY.frequencies_mhz
        assert 1200 in PAPER_STUDY.frequencies_mhz

    def test_quick_study_is_a_strict_subset(self):
        assert set(QUICK_STUDY.chips) <= set(PAPER_STUDY.chips)
        assert set(QUICK_STUDY.benchmarks) <= set(PAPER_STUDY.benchmarks)
        assert QUICK_STUDY.framework.campaigns < PAPER_STUDY.framework.campaigns

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(chips=("XXX",))
        with pytest.raises(ConfigurationError):
            StudyConfig(benchmarks=())
        with pytest.raises(ConfigurationError):
            StudyConfig(cores=(0, 9))


class TestPmuUnit:
    def test_start_record_stop_cycle(self):
        pmu = PerformanceMonitoringUnit(core=3)
        traits = get_benchmark("mcf").traits.as_dict()
        pmu.start()
        assert pmu.is_counting
        pmu.record_run(traits)
        snapshot = pmu.stop()
        assert len(snapshot) == 101
        assert not pmu.is_counting
        assert pmu.read("INST_RETIRED") == snapshot["INST_RETIRED"]

    def test_double_start_rejected(self):
        pmu = PerformanceMonitoringUnit(core=0)
        pmu.start()
        with pytest.raises(MachineStateError):
            pmu.start()

    def test_record_without_start_rejected(self):
        pmu = PerformanceMonitoringUnit(core=0)
        with pytest.raises(MachineStateError):
            pmu.record_run(get_benchmark("mcf").traits.as_dict())

    def test_stop_without_start_rejected(self):
        with pytest.raises(MachineStateError):
            PerformanceMonitoringUnit(core=0).stop()

    def test_read_before_any_snapshot_rejected(self):
        with pytest.raises(MachineStateError):
            PerformanceMonitoringUnit(core=0).read("CPU_CYCLES")

    def test_unknown_event_rejected(self):
        pmu = PerformanceMonitoringUnit(core=0)
        pmu.start()
        pmu.record_run(get_benchmark("mcf").traits.as_dict())
        pmu.stop()
        with pytest.raises(UnknownCounterError):
            pmu.read("NOT_AN_EVENT")

    def test_reset_clears_history(self):
        pmu = PerformanceMonitoringUnit(core=0)
        pmu.start()
        pmu.record_run(get_benchmark("mcf").traits.as_dict())
        pmu.stop()
        pmu.reset()
        assert pmu.history() == []
        with pytest.raises(MachineStateError):
            pmu.read("CPU_CYCLES")

    def test_stop_with_no_recorded_run_yields_zeros(self):
        pmu = PerformanceMonitoringUnit(core=0)
        pmu.start()
        snapshot = pmu.stop()
        assert all(value == 0.0 for value in snapshot.values())


#: Every package whose exports load on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.analysis.lint",
    "repro.core",
    "repro.data",
    "repro.faults",
    "repro.hardware",
    "repro.prediction",
    "repro.store",
    "repro.telemetry",
    "repro.workloads",
)


def _is_lazy(package):
    hook = vars(package).get("__getattr__")
    return getattr(hook, "__module__", None) == "repro._lazy"


def _declared_exports(package):
    """(names imported eagerly, {name: defining module} of the
    ``if TYPE_CHECKING:`` block) from a package's ``__init__``."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    eager, origin = set(), {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            eager |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING":
            for stmt in node.body:
                module = importlib.util.resolve_name(
                    "." * stmt.level + (stmt.module or ""), package.__name__)
                origin.update((alias.asname or alias.name, module)
                              for alias in stmt.names)
    return eager, origin


class TestPackageSurface:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_parse_log_is_a_test_oracle(self):
        """``parse_log``/``ParsedRun`` live beside the parser tests as
        their independent oracle, nowhere in the library: it parses
        with ``parse_records`` and ``count_log``."""
        import repro.core
        import repro.core.parser

        from . import log_oracle

        for name in ("parse_log", "ParsedRun"):
            assert name not in repro.core.__all__
            assert not hasattr(repro.core, name)
            assert not hasattr(repro.core.parser, name)
            assert hasattr(log_oracle, name)

    def test_quickstart_docstring_is_runnable(self):
        """The __init__ docstring's example must not rot."""
        from repro import CharacterizationFramework, MachineSpec, build_machine
        from repro.workloads import get_benchmark as gb
        machine = build_machine(MachineSpec(chip="TTT", seed=2017))
        framework = CharacterizationFramework(
            machine, repro.FrameworkConfig(start_mv=915, campaigns=1)
        )
        result = framework.characterize(gb("bwaves"), core=0)
        assert result.highest_vmin_mv > 0
        assert isinstance(result.severity_by_voltage(), dict)

    # -- lazy exports (repro._lazy) ------------------------------------

    def test_lazy_packages_are_the_listed_ones(self):
        found = {
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg and _is_lazy(importlib.import_module(info.name))
        }
        assert _is_lazy(repro)
        assert found | {"repro"} == set(LAZY_PACKAGES)

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_export_is_its_defining_object(self, name):
        package = importlib.import_module(name)
        # Import every submodule first: one that shares an export's
        # name would rebind the package attribute to itself.
        for info in pkgutil.iter_modules(package.__path__, name + "."):
            importlib.import_module(info.name)
        eager, origin = _declared_exports(package)
        assert set(origin) <= set(package.__all__)
        assert set(package.__all__) <= eager | set(origin)
        for export in package.__all__:
            value = getattr(package, export)
            if export in origin:
                defining = importlib.import_module(origin[export])
                assert value is getattr(defining, export), export

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_exports_are_listed_and_star_importable(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_telemetry_clock_stays_callable_after_its_submodule_import(self):
        env = dict(os.environ)
        src = Path(repro.__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        code = ("import repro.telemetry.clock\n"
                "import repro.telemetry as telemetry\n"
                "assert isinstance(telemetry.clock(), float)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        from repro import telemetry
        from repro.telemetry.context import clock
        assert importlib.import_module("repro.telemetry.clock")
        assert telemetry.clock is clock
