"""Paper-vs-measured claim checking.

:data:`PAPER_CLAIMS` is the machine-readable list of every quantitative
claim the reproduction targets; :func:`check_claims` evaluates the
model-derived ones instantly (the measurement-derived ones are covered
by the benchmark harness and EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..data.calibration import chip_calibration
from ..energy.savings import headline_savings
from ..energy.tradeoffs import figure9_ladder
from ..units import PMD_NOMINAL_MV
from ..workloads.spec2006 import benchmark as get_benchmark
from ..workloads.spec2006 import figure_benchmarks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import AnyStore


def _worst_robust_saving_pct(chip: str) -> float:
    """Guardband saving of the most demanding figure benchmark on the
    most robust core -- the paper's per-chip minimum saving."""
    calibration = chip_calibration(chip)
    worst_vmin = max(
        calibration.robust_vmin_2400_mv(bench.stress)
        for bench in figure_benchmarks()
    )
    return round(100 * (1 - (worst_vmin / PMD_NOMINAL_MV) ** 2), 1)


@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of checking one paper claim against the model."""

    claim_id: str
    description: str
    paper_value: float
    measured_value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.measured_value - self.paper_value) <= self.tolerance


def _savings() -> Dict[str, float]:
    return headline_savings().as_percent()


#: claim id -> (description, paper value, tolerance, evaluator).
PAPER_CLAIMS: Dict[str, tuple] = {
    "abstract.energy_saving_no_perf_loss": (
        "energy saving without compromising performance (%)",
        19.4, 0.05,
        lambda: _savings()["robust_core_full_speed_pct"],
    ),
    "abstract.energy_saving_25pct_loss": (
        "energy saving at 25% performance reduction (%)",
        38.8, 0.05,
        lambda: _savings()["two_pmds_slowed_pct"],
    ),
    "s5.chip_wide_saving": (
        "chip-wide saving at the shared-plane Vmin (%)",
        12.8, 0.05,
        lambda: _savings()["chip_wide_full_speed_pct"],
    ),
    "s5.power_saving_1p2ghz": (
        "power saving with everything at 1.2 GHz / 760 mV (%)",
        69.9, 0.05,
        lambda: _savings()["all_slowed_power_pct"],
    ),
    "s5.leslie3d_robust_vmin": (
        "leslie3d safe Vmin on the most robust PMD (mV)",
        880, 0,
        lambda: chip_calibration("TTT").vmin_mv(
            4, get_benchmark("leslie3d").stress
        ),
    ),
    "s5.leslie3d_sensitive_vmin": (
        "leslie3d safe Vmin on the most sensitive PMD (mV)",
        915, 0,
        lambda: chip_calibration("TTT").vmin_mv(
            0, get_benchmark("leslie3d").stress
        ),
    ),
    "s3.guardband_ttt_pct": (
        "minimum TTT guardband saving at 2.4 GHz (%)",
        18.4, 0.05,
        lambda: _worst_robust_saving_pct("TTT"),
    ),
    "s3.guardband_tss_pct": (
        "minimum TSS guardband saving at 2.4 GHz (%)",
        15.7, 0.05,
        lambda: _worst_robust_saving_pct("TSS"),
    ),
    "fig9.step0_power_pct": (
        "Figure 9: relative power at 915 mV, all PMDs 2.4 GHz (%)",
        87.2, 0.05,
        lambda: round(100 * figure9_ladder()[1].power_rel, 1),
    ),
    "fig9.step1_power_pct": (
        "Figure 9: relative power at 900 mV, one PMD slowed (%)",
        73.8, 0.05,
        lambda: round(100 * figure9_ladder()[2].power_rel, 1),
    ),
    "fig9.step2_power_pct": (
        "Figure 9: relative power at 885 mV, two PMDs slowed (%)",
        61.2, 0.05,
        lambda: round(100 * figure9_ladder()[3].power_rel, 1),
    ),
    "fig9.step3_power_pct": (
        "Figure 9: relative power at 875 mV, three PMDs slowed (%)",
        49.8, 0.05,
        lambda: round(100 * figure9_ladder()[4].power_rel, 1),
    ),
    "fig9.step4_power_pct_figure_variant": (
        "Figure 9: relative power at 760 mV with the clock-tree term (%)",
        37.6, 0.05,
        lambda: round(
            100 * figure9_ladder(clock_tree_fraction=0.25)[-1].power_rel, 1
        ),
    ),
}


def check_claims(only: Optional[List[str]] = None) -> List[ClaimCheck]:
    """Evaluate (a subset of) the model-derived paper claims."""
    checks = []
    for claim_id, (description, paper_value, tolerance, evaluate) in sorted(
        PAPER_CLAIMS.items()
    ):
        if only is not None and claim_id not in only:
            continue
        checks.append(
            ClaimCheck(
                claim_id=claim_id,
                description=description,
                paper_value=float(paper_value),
                measured_value=float(evaluate()),
                tolerance=float(tolerance),
            )
        )
    return checks


def render_claims(checks: List[ClaimCheck]) -> str:
    """Text report of claim checks."""
    lines = []
    for check in checks:
        status = "OK  " if check.passed else "FAIL"
        lines.append(
            f"[{status}] {check.claim_id}: paper {check.paper_value:g} "
            f"vs measured {check.measured_value:g} -- {check.description}"
        )
    return "\n".join(lines)


def store_report(store: "AnyStore") -> str:
    """Markdown section describing any journaled store, shard by shard.

    The measured counterpart of the model-derived report: the header
    summarizes population, grid and progress; each shard then renders
    its provenance (chip, spec digest, seed) and the per-cell grid
    summary reconstructed from its journal.  A standalone store is a
    one-shard fleet.
    """
    from ..store import open_store
    from .tables import render_table, table_store_summary

    fleet = open_store(store)
    manifest = fleet.manifest
    done = sum(
        len(shard.completed_keys()) for _entry, shard in fleet.shards()
    )
    total = manifest.tasks_total()
    lines = [
        "## Measured campaign store",
        "",
        f"- shards: {len(manifest.shards)} machine(s), digest "
        f"`{fleet.fleet_digest()}`",
        f"- grid per shard: {len(manifest.workloads)} workload(s) x "
        f"{len(manifest.cores)} core(s) x {manifest.config.campaigns} "
        f"campaign(s)",
        f"- progress: {done}/{total} tasks journaled"
        + ("" if done == total else " (resumable with `repro fleet run`)"),
    ]
    for entry, shard in fleet.shards():
        chip = shard.manifest.spec.chip
        chip_name = chip if isinstance(chip, str) else chip.name
        state = " [compacted]" if entry.compacted else ""
        lines += [
            "",
            f"### Shard {entry.name}{state}",
            "",
            f"- chip: {chip_name} (spec digest `{entry.spec_digest[:12]}`)",
            f"- seed: {shard.manifest.spec.seed}",
            f"- progress: {len(shard.completed_keys())}/{entry.total} "
            f"tasks journaled",
            f"- watchdog recoveries: {shard.interventions()}",
            "",
            "```",
            render_table(*table_store_summary(shard)),
            "```",
        ]
    return "\n".join(lines)
