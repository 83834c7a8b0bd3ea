"""Tables 1-4 of the paper, as data plus text rendering.

Tables 2-4 are cross-checked against the live configuration of the
simulator (the Table-2 bench fails if someone changes the cache sizes
in :mod:`repro.hardware` without updating the documented parameters).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..core.severity import DEFAULT_WEIGHTS
from ..effects import EFFECT_DESCRIPTIONS, EffectType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import CampaignStore


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain-text table rendering used by all regenerators."""
    columns = [list(col) for col in zip(headers, *rows)]
    widths = [max(len(str(cell)) for cell in col) for col in columns]
    def fmt(row: Sequence[object]) -> str:
        return " | ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
    rule = "-+-".join("-" * width for width in widths)
    lines = [fmt(headers), rule]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def table1_prior_work() -> Tuple[List[str], List[List[str]]]:
    """Table 1: summary of undervolting studies on commercial chips."""
    headers = ["ISA", "Processor", "Technology", "Ref."]
    rows = [
        ["POWER 7 / 7+", "IBM Power 750, 780", "45 / 32 nm", "[7, 8]"],
        ["x86 - IA64 extension", "Intel Itanium 9560", "32 nm", "[9, 10]"],
        ["Nvidia Fermi / Kepler", "GTX 480, 580, 680, 780", "40 / 28 nm", "[11]"],
        ["ARMv8", "APM X-Gene 2", "28 nm", "This work"],
    ]
    return headers, rows


def table2_parameters() -> Tuple[List[str], List[List[str]]]:
    """Table 2: basic parameters of the APM X-Gene 2.

    Values are read from the live simulator configuration so the table
    can never drift from the implementation.
    """
    from ..hardware.caches import CacheStack
    from ..faults.models import build_unit_models, FunctionalUnit
    from ..data.calibration import chip_calibration
    from ..units import FREQ_MAX_MHZ

    models = build_unit_models(chip_calibration("TTT"), 0, 0.5, 0.5)
    stack = CacheStack.for_core(models)
    by_name = {level.name: level for level in stack.levels}
    headers = ["Parameter", "Configuration"]
    rows = [
        ["ISA", "ARMv8 (AArch64, AArch32, Thumb)"],
        ["Pipeline", "64-bit OoO (4-issue)"],
        ["CPU", "8 cores"],
        ["Core clock", f"{FREQ_MAX_MHZ / 1000:.1f} GHz"],
        ["L1 Instr. cache",
         f"{by_name['L1I'].size_kb}KB per core "
         f"({by_name['L1I'].protection.capitalize()} Protected)"],
        ["L1 Data cache",
         f"{by_name['L1D'].size_kb}KB per core "
         f"({by_name['L1D'].protection.capitalize()} Protected)"],
        ["L2 cache",
         f"{by_name['L2'].size_kb}KB per PMD (ECC Protected)"],
        ["L3 cache", f"{by_name['L3'].size_kb // 1024}MB (ECC Protected)"],
        ["Technology", "28 nm"],
        ["Max TDP", "35 W"],
    ]
    return headers, rows


def table3_effects() -> Tuple[List[str], List[List[str]]]:
    """Table 3: effects classification, from the live enum."""
    headers = ["Effect", "Description"]
    order = (
        EffectType.NO, EffectType.SDC, EffectType.CE,
        EffectType.UE, EffectType.AC, EffectType.SC,
    )
    rows = [[effect.value, EFFECT_DESCRIPTIONS[effect]] for effect in order]
    return headers, rows


def table_store_summary(
    store: "CampaignStore",
) -> Tuple[List[str], List[List[str]]]:
    """Per-cell summary of one journaled store shard.

    Not a paper table -- the operational counterpart: what a six-month
    unattended campaign's progress report looks like, one row per
    (benchmark, core) grid cell reconstructed from the journal.
    """
    campaigns_expected = store.manifest.config.campaigns
    done = {key[:2]: 0 for key in store.completed_keys()}
    for key in store.completed_keys():
        done[key[:2]] += 1
    results = store.results()
    headers = ["Benchmark", "Core", "Campaigns", "Vmin (mV)", "Crash (mV)",
               "Peak severity"]
    rows: List[List[str]] = []
    for name in store.manifest.workloads:
        for core in store.manifest.cores:
            completed = done.get((name, core), 0)
            row = [name, str(core), f"{completed}/{campaigns_expected}"]
            result = results.get((name, core))
            if result is None:
                row += ["--", "--", "--"]
            else:
                crash = result.highest_crash_mv
                severity = result.severity_by_voltage(store.manifest.weights)
                row += [
                    str(result.highest_vmin_mv),
                    "--" if crash is None else str(crash),
                    f"{max(severity.values()):.2f}" if severity else "--",
                ]
            rows.append(row)
    return headers, rows


def table4_weights() -> Tuple[List[str], List[List[str]]]:
    """Table 4: severity weights, from the live defaults."""
    headers = ["Weight", "Value"]
    weights = DEFAULT_WEIGHTS
    rows = [
        ["W_SC", str(int(weights.sc))],
        ["W_AC", str(int(weights.ac))],
        ["W_SDC", str(int(weights.sdc))],
        ["W_UE", str(int(weights.ue))],
        ["W_CE", str(int(weights.ce))],
        ["W_NO", "0"],
    ]
    return headers, rows
