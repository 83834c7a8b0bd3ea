"""Parsing phase (Figure 2): raw campaign logs -> classified runs.

The execution phase appends plain-text blocks to a log (one block per
run, the shape a shell-script harness would produce); the parsing phase
turns them back into structured, classified results.  Keeping this a
real text round-trip -- rather than passing Python objects through --
preserves the paper's architecture and its failure mode: a system crash
truncates the run's block (no exit-code line is ever written), and the
parser classifies exactly from what survived.

Diagnostics go through the structured telemetry logger (silent unless
a telemetry session is active) instead of the :mod:`logging` module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .. import telemetry
from ..effects import EffectType
from ..errors import ParseError
from .effects import classify_run
from .regions import counts_from_pairs
from .runs import CharacterizationSetup, RunRecord

_LOG = telemetry.get_logger("repro.core.parser")

#: Start-of-block marker written by the execution phase.
RUN_HEADER = "=== RUN"

_HEADER_RE = re.compile(
    r"^=== RUN chip=(?P<chip>\S+) benchmark=(?P<benchmark>\S+) "
    r"core=(?P<core>\d+) voltage_mv=(?P<voltage>\d+) freq_mhz=(?P<freq>\d+) "
    r"campaign=(?P<campaign>\d+) run=(?P<run>\d+) ===$"
)
_KV_RE = re.compile(r"(\w+)=(\S+)")
#: The ASCII line boundaries :meth:`str.splitlines` knows besides ``\n``.
_ODD_ASCII_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


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


def format_run_block(
    chip: str,
    benchmark: str,
    core: int,
    voltage_mv: int,
    freq_mhz: int,
    campaign_index: int,
    run_index: int,
    exit_code: Optional[int],
    output: Optional[str],
    expected_output: str,
    edac_ce: int,
    edac_ue: int,
    responsive: bool,
    watchdog_action: str = "none",
    edac_locations: Optional[Mapping[str, int]] = None,
) -> str:
    """Render one run as the log block the execution phase stores.

    Mirrors the real framework: a system crash means the in-band lines
    (exit code, output, EDAC) were never flushed; only the header and
    the post-recovery status/watchdog lines exist.
    """
    lines = [
        f"=== RUN chip={chip} benchmark={benchmark} core={core} "
        f"voltage_mv={voltage_mv} freq_mhz={freq_mhz} "
        f"campaign={campaign_index} run={run_index} ==="
    ]
    if responsive and exit_code is not None:
        lines.append(f"exit_code={exit_code}")
        if output is not None:
            lines.append(f"output={output} expected={expected_output}")
        lines.append(f"edac_ce={edac_ce} edac_ue={edac_ue}")
        if edac_locations:
            encoded = ",".join(
                f"{key}:{count}" for key, count in sorted(edac_locations.items())
            )
            lines.append(f"edac_locations={encoded}")
        status = "completed" if exit_code == 0 else "app_crash"
    else:
        status = "system_crash"
    lines.append(f"status={status}")
    lines.append(f"watchdog={watchdog_action}")
    return "\n".join(lines) + "\n"


class _Body(NamedTuple):
    """The classified fields of one run block's body (after the header)."""

    effects: FrozenSet[EffectType]
    exit_code: Optional[int]
    output_matches: Optional[bool]
    edac_ce: int
    edac_ue: int
    watchdog_action: str
    edac_locations: Dict[str, int]


def _parse_header(line: str) -> "re.Match[str]":
    header = _HEADER_RE.match(line)
    if header is None:
        _LOG.error("malformed run header", header=line)
        raise ParseError(f"malformed run header: {line!r}")
    return header


def _parse_body(header: str, lines: Sequence[str]) -> _Body:
    fields: Dict[str, str] = {}
    for line in lines:
        for key, value in _KV_RE.findall(line):
            fields[key] = value

    status = fields.get("status")
    if status is None:
        _LOG.error("run block missing status line", header=header)
        raise ParseError(f"run block missing status line: {header!r}")
    responsive = status != "system_crash"
    exit_code = int(fields["exit_code"]) if "exit_code" in fields else None
    output = fields.get("output")
    expected = fields.get("expected", "")
    edac_ce = int(fields.get("edac_ce", 0))
    edac_ue = int(fields.get("edac_ue", 0))
    effects = classify_run(
        responsive=responsive,
        exit_code=exit_code,
        output=output,
        expected_output=expected,
        edac_ce=edac_ce,
        edac_ue=edac_ue,
    )
    output_matches: Optional[bool]
    if output is None:
        output_matches = None
    else:
        output_matches = output == expected
    locations: Dict[str, int] = {}
    if "edac_locations" in fields:
        for pair in fields["edac_locations"].split(","):
            key, _colon, count = pair.partition(":")
            if not key or not count.isdigit():
                raise ParseError(f"malformed edac_locations entry: {pair!r}")
            locations[key] = int(count)
    return _Body(
        effects=effects,
        exit_code=exit_code,
        output_matches=output_matches,
        edac_ce=edac_ce,
        edac_ue=edac_ue,
        watchdog_action=fields.get("watchdog", "none"),
        edac_locations=locations,
    )


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


def _blocks(text: str) -> List[str]:
    """Each run block of a log as its text past :data:`RUN_HEADER`:
    the rest of the header line, then its body lines, newline-joined.

    Lines split as :meth:`str.splitlines` splits them, and a block
    starts at every line that starts with :data:`RUN_HEADER`; any
    non-blank line before the first one is an error.
    """
    if not text.isascii() or any(c in text for c in _ODD_ASCII_BREAKS):
        text = "\n".join(text.splitlines())
    elif text.endswith("\n"):
        text = text[:-1]  # the same string, without a per-line split
    lead, *blocks = ("\n" + text).split("\n" + RUN_HEADER)
    for line in lead.split("\n"):
        if line.strip():
            raise ParseError(f"content before first run header: {line!r}")
    return blocks


def parse_log(text: str) -> List[ParsedRun]:
    """Parse a whole campaign log into classified runs."""
    runs = [
        _parse_block((RUN_HEADER + block).split("\n"))
        for block in _blocks(text)
    ]
    telemetry.inc_counter(telemetry.M_PARSER_RUNS, amount=len(runs))
    _LOG.debug("parsed campaign log", runs=len(runs))
    return runs


class _Head(NamedTuple):
    """The fields of a run header up to its run index."""

    chip: str
    benchmark: str
    setup: CharacterizationSetup
    campaign_index: int


class ParseMemo:
    """Parsed header prefixes and block bodies, keyed by their text.

    Logs repeat themselves: a 240-campaign store holds ~39k run blocks
    but under 2k distinct bodies and 4k distinct headers (up to the
    run index).  One memo serves every log one reader parses -- a
    :class:`~repro.store.CampaignStore` owns one for its journal -- so
    each distinct text is parsed and checked once.  Never shared
    across readers: a fresh open gets a fresh memo and so stays an
    independent parse.
    """

    def __init__(self) -> None:
        self.heads: Dict[str, _Head] = {}
        self.bodies: Dict[str, _Body] = {}


def _runs(text: str, memo: ParseMemo) -> Iterator[Tuple[_Head, str, _Body]]:
    """(header fields, run index text, body fields) of every block.

    Blocks, header/body checks and classification are
    :func:`parse_log`'s, so every malformed block raises as it does
    there; the memo spares re-parsing a text it has seen, and the run
    index is checked per block.
    """
    heads, bodies = memo.heads, memo.bodies
    for block in _blocks(text):
        line, _newline, body_text = block.partition("\n")
        prefix, _sep, tail = line.rpartition(" run=")
        run = tail[:-4]
        head = heads.get(prefix)
        if head is None or not (tail.endswith(" ===") and run.isdecimal()):
            header = _parse_header(RUN_HEADER + line)
            head = heads[prefix] = _Head(
                chip=header["chip"],
                benchmark=header["benchmark"],
                setup=CharacterizationSetup(
                    voltage_mv=int(header["voltage"]),
                    freq_mhz=int(header["freq"]),
                    core=int(header["core"]),
                ),
                campaign_index=int(header["campaign"]),
            )
        body = bodies.get(body_text)
        if body is None:
            body = bodies[body_text] = _parse_body(
                RUN_HEADER + line, body_text.split("\n")
            )
        yield head, run, body


class LogCounts(NamedTuple):
    """What :func:`count_log` keeps of a validated log."""

    #: The first run's chip (empty for a log without runs).
    chip: str
    #: voltage -> effect -> number of runs the effect appeared in.
    counts: Dict[int, Dict[EffectType, int]]
    #: voltage -> number of runs executed at that level.
    run_counts: Dict[int, int]


def count_log(text: str, memo: ParseMemo) -> LogCounts:
    """Validate a whole campaign log and count its runs per voltage.

    Every block passes every check :func:`parse_records` makes, so a
    log this accepts parses, and one it rejects raises the same error;
    but no :class:`RunRecord` is built.  The counts accumulate over
    the distinct (voltage, effects) pairs of the log, each weighted by
    how often it occurs, and equal the per-voltage index of the parsed
    records.  Counts no metric.
    """
    chip = ""
    pairs: Dict[Tuple[int, FrozenSet[EffectType]], int] = {}
    for head, _run, body in _runs(text, memo):
        if not chip:
            chip = head.chip
        pair = (head.setup.voltage_mv, body.effects)
        pairs[pair] = pairs.get(pair, 0) + 1
    counts, run_counts = counts_from_pairs(pairs)
    return LogCounts(chip=chip, counts=counts, run_counts=run_counts)


def parse_records(
    text: str, memo: Optional[ParseMemo] = None
) -> Tuple[RunRecord, ...]:
    """Parse a whole campaign log straight into :class:`RunRecord` s.

    The framework's parsing phase and every record a journal read
    materializes go through here.  Blocks, checks and classification
    are :func:`parse_log`'s, each distinct header prefix and body
    parsed once per ``memo`` (a fresh one by default).  Counts no
    metric: the framework's parsing phase books its own, journal reads
    book none.
    """
    memo = ParseMemo() if memo is None else memo
    return tuple(
        RunRecord(
            chip=head.chip,
            benchmark=head.benchmark,
            setup=head.setup,
            campaign_index=head.campaign_index,
            run_index=int(run),
            effects=body.effects,
            exit_code=body.exit_code,
            output_matches=body.output_matches,
            edac_ce=body.edac_ce,
            edac_ue=body.edac_ue,
            watchdog_intervened=body.watchdog_action != "none",
            detail=dict(body.edac_locations),
        )
        for head, run, body in _runs(text, memo)
    )
