"""Workload models: suite, traits, stress identity, self-tests, generator."""

import pytest

from repro.errors import ConfigurationError, UnknownBenchmarkError
from repro.faults.models import FunctionalUnit
from repro.workloads import (
    SPEC2006_SUITE,
    SyntheticWorkloadGenerator,
    all_programs,
    figure_benchmarks,
    get_benchmark,
    get_program,
    reference_output,
    runtime_seconds,
)
from repro.workloads.benchmark import (
    WorkloadTraits,
    latent_stress_for,
    solve_traits_for_stress,
    stress_from_traits,
)
from repro.workloads.selftests import SELF_TESTS, cache_tests, pipeline_tests
from repro.workloads.spec2006 import EXCLUDED_BENCHMARKS


class TestSuiteShape:
    def test_26_benchmarks_40_programs(self):
        # Section 4.3.1: 26 benchmarks with all inputs = 40 programs.
        assert len(SPEC2006_SUITE) == 26
        assert len(all_programs()) == 40

    def test_three_excluded(self):
        assert len(EXCLUDED_BENCHMARKS) == 3
        for name in EXCLUDED_BENCHMARKS:
            with pytest.raises(UnknownBenchmarkError):
                get_benchmark(name)

    def test_figure_benchmarks(self):
        names = [b.name for b in figure_benchmarks()]
        assert names == ["bwaves", "cactusADM", "dealII", "gromacs",
                         "leslie3d", "mcf", "milc", "namd", "soplex",
                         "zeusmp"]

    def test_program_lookup(self):
        assert get_program("gcc/200").input_set == "200"
        assert get_program("bwaves").input_set == "ref"
        with pytest.raises(UnknownBenchmarkError):
            get_program("gcc/999")

    def test_unknown_benchmark(self):
        with pytest.raises(UnknownBenchmarkError):
            get_benchmark("doom")


class TestStressIdentity:
    def test_identity_holds_for_suite(self):
        from repro.workloads.benchmark import _fixed_contribution
        for bench in SPEC2006_SUITE.values():
            implied = stress_from_traits(bench.traits)
            # The traits can only express stress within the template's
            # feasible band; large latent offsets clip at its edges.
            fixed = _fixed_contribution(bench.traits)
            expressible = min(max(bench.visible_stress, fixed), fixed + 0.6)
            assert implied == pytest.approx(expressible, abs=0.03), bench.name

    def test_latent_deterministic(self):
        assert latent_stress_for("bwaves") == latent_stress_for("bwaves")
        assert latent_stress_for("bwaves") != latent_stress_for("mcf")

    def test_latent_bounded(self):
        for bench in SPEC2006_SUITE.values():
            assert -0.45 <= bench.latent_stress <= 0.45

    def test_solver_hits_target(self):
        base = WorkloadTraits()
        for target in (0.2, 0.4, 0.6):
            solved = solve_traits_for_stress(base, target)
            assert stress_from_traits(solved) == pytest.approx(target, abs=1e-6)

    def test_solver_rejects_unreachable_without_clamp(self):
        # A memory-light, branch-heavy template has a large fixed
        # contribution; stress 0 is unreachable.
        base = WorkloadTraits(load_ratio=0.10, branch_ratio=0.25,
                              btb_misp_rate=0.02)
        with pytest.raises(ConfigurationError):
            solve_traits_for_stress(base, 0.0)

    def test_solver_clamps_when_asked(self):
        base = WorkloadTraits(load_ratio=0.10, branch_ratio=0.25,
                              btb_misp_rate=0.02)
        solved = solve_traits_for_stress(base, 0.0, clamp=True)
        assert stress_from_traits(solved) >= 0.0

    def test_traits_validated(self):
        with pytest.raises(ConfigurationError):
            WorkloadTraits(ipc=-1.0)
        with pytest.raises(ConfigurationError):
            WorkloadTraits(load_ratio=1.5)


class TestPrograms:
    def test_input_sets_perturb_stress_slightly(self):
        ref = get_program("gcc")
        alt = get_program("gcc/166")
        assert ref.stress != alt.stress
        assert abs(ref.stress - alt.stress) <= 0.031

    def test_input_sets_perturb_traits_consistently(self):
        alt = get_program("gcc/166")
        implied = stress_from_traits(alt.traits)
        visible = min(1.0, max(0.0, alt.stress - alt.benchmark.latent_stress))
        assert implied == pytest.approx(visible, abs=0.06)

    def test_ref_program_traits_are_benchmark_traits(self):
        assert get_program("bwaves").traits == get_benchmark("bwaves").traits

    def test_unknown_input_rejected(self):
        from repro.workloads.benchmark import Program
        with pytest.raises(ConfigurationError):
            Program(benchmark=get_benchmark("bwaves"), input_set="train")


class TestUnitStress:
    def test_fp_benchmark_stresses_fpu(self):
        leslie = get_benchmark("leslie3d")
        assert leslie.unit_stress[FunctionalUnit.FPU] > \
            leslie.unit_stress[FunctionalUnit.ALU] * 0.5

    def test_memory_benchmark_stresses_lsu(self):
        mcf = get_benchmark("mcf")
        assert mcf.unit_stress[FunctionalUnit.LSU] > 0.8
        assert mcf.unit_stress[FunctionalUnit.FPU] < 0.2


class TestSelfTests:
    def test_five_self_tests(self):
        assert len(SELF_TESTS) == 5

    def test_pipeline_tests_are_high_stress(self):
        # Section 3.4: ALU/FPU tests expose SDCs at high voltages.
        for test in pipeline_tests():
            assert test.stress >= 0.9

    def test_cache_tests_are_low_stress(self):
        # Cache bit-cells "safely operate at higher voltages": the march
        # tests only fail far lower.
        for test in cache_tests():
            assert test.stress <= 0.1

    def test_cache_tests_stress_their_array(self):
        by_name = dict(SELF_TESTS)
        assert by_name["l1-march"].unit_stress[FunctionalUnit.L1_SRAM] == 1.0
        assert by_name["l2-march"].unit_stress[FunctionalUnit.L2_SRAM] == 1.0
        assert by_name["l3-march"].unit_stress[FunctionalUnit.L3_SRAM] == 1.0


class TestGenerator:
    def test_generated_workloads_internally_consistent(self):
        gen = SyntheticWorkloadGenerator(seed=3)
        for bench in gen.draw_many(100):
            implied = stress_from_traits(bench.traits)
            assert implied == pytest.approx(bench.stress, abs=1e-6)

    def test_pinned_stress(self):
        gen = SyntheticWorkloadGenerator(seed=3)
        for target in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert gen.draw(stress=target).stress == pytest.approx(target, abs=0.01)

    def test_target_at_band_edge_survives_template_rounding(self):
        # Seed 3130 samples a fixed contribution 6e-5 above the lowest
        # solvable one; rounding the template rates drops it below.
        bench = SyntheticWorkloadGenerator(seed=3130).draw()
        assert bench.stress == pytest.approx(0.8749, abs=1e-3)
        assert stress_from_traits(bench.traits) == pytest.approx(bench.stress, abs=1e-6)

    def test_reproducible(self):
        first = SyntheticWorkloadGenerator(seed=9).draw_many(5)
        second = SyntheticWorkloadGenerator(seed=9).draw_many(5)
        assert [b.traits for b in first] == [b.traits for b in second]

    def test_invalid_inputs_rejected(self):
        gen = SyntheticWorkloadGenerator()
        with pytest.raises(ConfigurationError):
            gen.draw(stress=1.5)
        with pytest.raises(ConfigurationError):
            gen.draw_many(-1)


class TestExecutionArithmetic:
    def test_runtime_formula(self):
        prog = get_program("bwaves")
        runtime = runtime_seconds(prog, 2400)
        expected = prog.traits.instructions / (prog.traits.ipc * 2400e6)
        assert runtime == pytest.approx(expected)

    def test_runtime_doubles_at_half_frequency(self):
        prog = get_program("mcf")
        assert runtime_seconds(prog, 1200) == pytest.approx(
            2 * runtime_seconds(prog, 2400))

    def test_reference_output_stable_and_distinct(self):
        assert reference_output(get_program("mcf")) == \
            reference_output(get_program("mcf"))
        assert reference_output(get_program("mcf")) != \
            reference_output(get_program("bwaves"))

    def test_corrupted_output_differs(self):
        from repro.workloads.execution import corrupted_output
        prog = get_program("mcf")
        assert corrupted_output(prog, 1) != reference_output(prog)
        assert corrupted_output(prog, 1) != corrupted_output(prog, 2)
