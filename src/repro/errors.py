"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Hardware-simulation faults that model
*machine* misbehaviour (crashes, hangs) are deliberately **not** Python
exceptions leaking out of the simulator -- they are reported as run
outcomes -- but programming/usage errors are raised eagerly through the
classes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An experiment or hardware configuration value is invalid."""


class VoltageRangeError(ConfigurationError):
    """A requested supply voltage is outside the regulator's range or
    not aligned to the regulator's step size."""


class FrequencyRangeError(ConfigurationError):
    """A requested frequency is outside the PLL range or not a multiple
    of the supported step."""


class UnknownBenchmarkError(ReproError):
    """A benchmark or program name was not found in the suite."""


class UnknownCounterError(ReproError):
    """A performance-counter event name is not one of the 101 events
    exposed by the simulated PMU."""


class MachineStateError(ReproError):
    """The simulated machine is in the wrong state for the requested
    operation (e.g. launching a program on a powered-off machine)."""


class WatchdogError(ReproError):
    """The watchdog monitor could not recover the machine."""


class CampaignError(ReproError):
    """A characterization campaign was mis-specified or its results are
    incomplete for the requested analysis."""


class StoreError(CampaignError):
    """A campaign/fleet store on disk is unusable: corrupt manifest or
    journal, mismatched spec digest, unroutable shard, or a compaction
    that would invalidate live cursors.

    Subclasses :class:`CampaignError` so existing callers that catch
    the broader class keep working; new store-layer code should raise
    and catch this one."""


class CorruptLogError(StoreError, ValueError):
    """An append-only JSONL log has a bad line before its last one: real
    corruption, not a torn tail.  Also a :class:`ValueError`, which the
    tsdb and trace readers used to raise."""


class ParseError(ReproError):
    """A characterization log could not be parsed."""


class PredictionError(ReproError):
    """A prediction model was used before fitting, or fed malformed
    samples."""


class DatasetError(PredictionError):
    """A regression dataset is malformed (shape mismatch, too few
    samples to split, ...)."""


class EccError(ReproError):
    """Invalid use of the ECC codecs (wrong word width, ...)."""
