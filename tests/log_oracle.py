"""The log parser's independent oracle: block-by-block parsing into
:class:`ParsedRun` values.

The library parses with :func:`repro.core.parser.parse_records` and
:func:`repro.core.parser.count_log`, which memoize repeated headers and
bodies; :func:`parse_log` parses every block on its own, so the parser
tests can hold those two against it.
"""

from dataclasses import dataclass, field
from typing import FrozenSet, List, Mapping, Optional

from repro import telemetry
from repro.core.parser import RUN_HEADER, _blocks, _parse_body, _parse_header
from repro.effects import EffectType

_LOG = telemetry.get_logger("repro.core.parser")


@dataclass(frozen=True)
class ParsedRun:
    """One run block, parsed and classified."""

    chip: str
    benchmark: str
    core: int
    voltage_mv: int
    freq_mhz: int
    campaign_index: int
    run_index: int
    effects: FrozenSet[EffectType]
    exit_code: Optional[int]
    output_matches: Optional[bool]
    edac_ce: int
    edac_ue: int
    watchdog_action: str
    #: Per-location error attribution (``{"ce_L2": 1, ...}``) from the
    #: execution phase's logging (Section 2.2's parser extension).
    edac_locations: Mapping[str, int] = field(default_factory=dict)


def _parse_block(lines: List[str]) -> ParsedRun:
    header = _parse_header(lines[0])
    body = _parse_body(lines[0], lines[1:])
    return ParsedRun(
        chip=header["chip"],
        benchmark=header["benchmark"],
        core=int(header["core"]),
        voltage_mv=int(header["voltage"]),
        freq_mhz=int(header["freq"]),
        campaign_index=int(header["campaign"]),
        run_index=int(header["run"]),
        effects=body.effects,
        exit_code=body.exit_code,
        output_matches=body.output_matches,
        edac_ce=body.edac_ce,
        edac_ue=body.edac_ue,
        watchdog_action=body.watchdog_action,
        edac_locations=body.edac_locations,
    )


def parse_log(text: str) -> List[ParsedRun]:
    """Parse a whole campaign log into classified runs."""
    runs = [
        _parse_block((RUN_HEADER + block).split("\n"))
        for block in _blocks(text)
    ]
    telemetry.inc_counter(telemetry.M_PARSER_RUNS, amount=len(runs))
    _LOG.debug("parsed campaign log", runs=len(runs))
    return runs
