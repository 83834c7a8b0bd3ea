"""Log round-trip: format -> parse -> classify."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.campaign import _index_records
from repro.core.parser import (
    ParsedRun,
    ParseMemo,
    count_log,
    format_run_block,
    parse_log,
    parse_records,
)
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.errors import ConfigurationError, ParseError
from repro.machines import MachineSpec, build_machine
from repro.workloads import get_benchmark


def block(**overrides):
    defaults = dict(
        chip="TTT", benchmark="bwaves", core=0, voltage_mv=905,
        freq_mhz=2400, campaign_index=1, run_index=3, exit_code=0,
        output="aaa", expected_output="aaa", edac_ce=0, edac_ue=0,
        responsive=True, watchdog_action="none",
    )
    defaults.update(overrides)
    return format_run_block(**defaults)


class TestRoundTrip:
    def test_normal_run(self):
        runs = parse_log(block())
        assert len(runs) == 1
        run = runs[0]
        assert run.effects == frozenset({EffectType.NO})
        assert run.chip == "TTT"
        assert run.voltage_mv == 905
        assert run.campaign_index == 1 and run.run_index == 3
        assert run.output_matches is True

    def test_sdc_run(self):
        runs = parse_log(block(output="bbb"))
        assert runs[0].effects == frozenset({EffectType.SDC})
        assert runs[0].output_matches is False

    def test_app_crash_run(self):
        runs = parse_log(block(exit_code=139, output=None))
        assert runs[0].effects == frozenset({EffectType.AC})
        assert runs[0].exit_code == 139
        assert runs[0].output_matches is None

    def test_system_crash_truncates_block(self):
        text = block(responsive=False, exit_code=None, output=None,
                     watchdog_action="reset")
        assert "exit_code" not in text
        assert "edac" not in text
        runs = parse_log(text)
        assert runs[0].effects == frozenset({EffectType.SC})
        assert runs[0].watchdog_action == "reset"

    def test_edac_effects(self):
        runs = parse_log(block(edac_ce=2, edac_ue=1))
        assert runs[0].effects == frozenset({EffectType.CE, EffectType.UE})
        assert runs[0].edac_ce == 2 and runs[0].edac_ue == 1

    def test_multi_block_log(self):
        text = block(run_index=1) + block(run_index=2, output="bad") + \
            block(run_index=3, responsive=False, exit_code=None, output=None)
        runs = parse_log(text)
        assert [r.run_index for r in runs] == [1, 2, 3]
        assert runs[1].effects == frozenset({EffectType.SDC})
        assert runs[2].effects == frozenset({EffectType.SC})

    def test_program_names_with_inputs(self):
        runs = parse_log(block(benchmark="gcc/200"))
        assert runs[0].benchmark == "gcc/200"


class TestRobustness:
    def test_empty_log(self):
        assert parse_log("") == []

    def test_garbage_before_header_rejected(self):
        with pytest.raises(ParseError):
            parse_log("random noise\n" + block())

    def test_malformed_header_rejected(self):
        with pytest.raises(ParseError):
            parse_log("=== RUN gibberish ===\nstatus=completed\n")

    def test_missing_status_rejected(self):
        text = block().replace("status=completed\n", "")
        with pytest.raises(ParseError):
            parse_log(text)

    def test_blank_lines_between_blocks_tolerated(self):
        text = block(run_index=1) + "\n\n" + block(run_index=2)
        assert len(parse_log(text)) == 2


def records_via_parse_log(text):
    """Records built from :func:`parse_log` through the constructors."""
    return tuple(
        RunRecord(
            chip=run.chip, benchmark=run.benchmark,
            setup=CharacterizationSetup(
                voltage_mv=run.voltage_mv, freq_mhz=run.freq_mhz,
                core=run.core),
            campaign_index=run.campaign_index, run_index=run.run_index,
            effects=run.effects, exit_code=run.exit_code,
            output_matches=run.output_matches, edac_ce=run.edac_ce,
            edac_ue=run.edac_ue,
            watchdog_intervened=run.watchdog_action != "none",
            detail=dict(run.edac_locations),
        )
        for run in parse_log(text)
    )


def outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ConfigurationError):
        return "rejected"


def kernel_logs(chip, seed, bench, start_mv, runs_per_level):
    """(raw log, kernel-built records) of a two-campaign characterization."""
    framework = CharacterizationFramework(
        build_machine(MachineSpec(chip=chip, seed=seed)),
        FrameworkConfig(start_mv=start_mv, campaigns=2,
                        runs_per_level=runs_per_level))
    result = framework.characterize(get_benchmark(bench), core=0)
    assert framework.last_campaign_path == "batch"
    return [
        (framework.raw_logs[(bench, 0, c.freq_mhz, c.campaign_index)],
         c.records)
        for c in result.campaigns
    ]


HEADERS = st.builds(
    "=== RUN chip={} benchmark={} core={} voltage_mv={} freq_mhz={} "
    "campaign={} run={}{}".format,
    st.sampled_from(["TTT", "TFF"]), st.sampled_from(["mcf", "gcc/200"]),
    st.sampled_from(["0", "4", "9"]), st.sampled_from(["905", "880", "50"]),
    st.just("2400"), st.sampled_from(["1", "2"]),
    st.sampled_from(["1", "2", "17", "x", ""]),
    st.sampled_from([" ===", " ===", " ===", " ==", " === run=3 ==="]),
)
BODY_LINES = st.sampled_from([
    "exit_code=0", "exit_code=139", "output=a expected=a",
    "output=b expected=a", "edac_ce=0 edac_ue=0", "edac_ce=2 edac_ue=1",
    "edac_locations=ce_L2:1", "edac_locations=ce_L2:2,ue_L3:1",
    "edac_locations=ce_L2:x", "status=completed", "status=app_crash",
    "status=system_crash", "watchdog=none", "watchdog=reset", "", "noise",
])


class TestParseRecords:
    """``parse_records`` is ``parse_log`` + the record constructors."""

    def test_matches_parse_log_on_kernel_logs(self):
        """A sweep deep into the crash region: every block shape."""
        logs = kernel_logs("TTT", 2017, "mcf", 910, 6)
        logs += kernel_logs("TTT", 2017, "bwaves", 910, 6)
        records = []
        for text, kernel_records in logs:
            parsed = parse_records(text)
            assert parsed == records_via_parse_log(text) == kernel_records
            assert [r.detail for r in parsed] == [
                r.detail for r in kernel_records]
            records.extend(parsed)
        effects = set().union(*(r.effects for r in records))
        assert effects == set(EffectType)
        assert any(r.exit_code not in (None, 0) for r in records)
        assert any(len(r.detail) > 1 for r in records)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chip=st.sampled_from(["TTT", "TFF", "TSS"]),
        bench=st.sampled_from(["mcf", "bwaves", "namd"]),
        start_mv=st.sampled_from([920, 905, 895]),
        runs_per_level=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_parse_log_on_generated_campaigns(
        self, seed, chip, bench, start_mv, runs_per_level
    ):
        for text, kernel_records in kernel_logs(
                chip, seed, bench, start_mv, runs_per_level):
            assert parse_records(text) == records_via_parse_log(text)
            assert parse_records(text) == kernel_records

    @given(st.lists(st.one_of(HEADERS, BODY_LINES), max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_on_arbitrary_lines(self, lines):
        """Malformed headers, missing status lines and bad
        ``edac_locations`` entries raise in both; anything else parses
        to equal records."""
        text = "\n".join(lines)
        assert outcome(parse_records, text) == outcome(
            records_via_parse_log, text)

    def test_repeated_blocks_share_parsed_fields(self):
        text = block(run_index=1) + block(run_index=2) + block(
            run_index=3, output="bad")
        records = parse_records(text)
        assert [r.run_index for r in records] == [1, 2, 3]
        assert records[0].setup is records[2].setup
        assert records[0].effects is records[1].effects
        assert records[0].detail is not records[1].detail

    def test_run_index_checked_per_block(self):
        bad = block(run_index=1) + block(run_index=2).replace(
            "run=2 ===", "run=2x ===")
        with pytest.raises(ParseError, match="malformed run header"):
            parse_records(bad)

    def test_counts_no_parser_metric(self):
        """Journal reads parse through here and must not count as the
        framework's parsing phase."""
        from repro.telemetry import (
            M_EFFECTS, M_PARSER_RUNS, MetricsRegistry, telemetry_session)

        registry = MetricsRegistry()
        with telemetry_session(metrics=registry):
            parse_records(block() + block(run_index=4))
            assert registry.counter(M_PARSER_RUNS).value == 0
            assert registry.counter(M_EFFECTS, effect="NO").value == 0
            parse_log(block())
            assert registry.counter(M_PARSER_RUNS).value == 1


def counted(text, memo=None):
    log = count_log(text, ParseMemo() if memo is None else memo)
    return log.chip, log.counts, log.run_counts


def indexed(text):
    records = parse_records(text)
    index = _index_records(records)
    return (records[0].chip if records else ""), index.counts, index.run_counts


class TestCountLog:
    """``count_log`` validates like ``parse_records`` and counts like the
    per-voltage index of its records, without building them."""

    def test_matches_the_record_index_on_kernel_logs(self):
        memo = ParseMemo()
        logs = kernel_logs("TTT", 2017, "mcf", 910, 6)
        logs += kernel_logs("TTT", 2017, "bwaves", 910, 6)
        for text, _kernel_records in logs:
            assert counted(text, memo) == indexed(text)
            assert list(counted(text, memo)[1]) == list(indexed(text)[1])

    @given(st.lists(st.one_of(HEADERS, BODY_LINES), max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_on_arbitrary_lines(self, lines):
        text = "\n".join(lines)
        assert outcome(counted, text) == outcome(indexed, text)

    @given(st.lists(st.one_of(HEADERS, BODY_LINES), max_size=12),
           st.sampled_from(["\n", "\r\n", "\r", "\x0b", " "]))
    @settings(max_examples=200, deadline=None)
    def test_any_line_boundary_splits_like_splitlines(self, lines, newline):
        text = newline.join(lines) + newline
        split = "\n".join(text.splitlines())
        assert outcome(counted, text) == outcome(indexed, text)
        assert outcome(counted, text) == outcome(counted, split)
        assert outcome(parse_records, text) == outcome(parse_records, split)

    def test_memo_shared_across_logs_keeps_checking_run_indexes(self):
        memo = ParseMemo()
        counted(block(run_index=1), memo)
        with pytest.raises(ParseError, match="malformed run header"):
            counted(block(run_index=1).replace("run=1 ===", "run=1x ==="),
                    memo)
        assert len(memo.heads) == len(memo.bodies) == 1

    def test_empty_log_counts_nothing(self):
        assert counted("\n\n") == ("", {}, {})
