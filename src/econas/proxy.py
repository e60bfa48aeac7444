"""Reduced training settings: reduction-factor tables, setting labels,
nominal speed-ups, and an analytic multiply-accumulate cost model.

A reduced setting is a combination of four factors: channel level (c),
input-resolution level (r), training-sample ratio level (s), and an epoch
count (e). Levels index into a :class:`ReductionTable`; stepping any of the
first three levels up by one nominally halves the per-iteration FLOPs, so a
setting at indices (a, b, c) is a 2^(a+b+c) nominal speed-up over (0, 0, 0)
at equal epochs.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass

from . import documents
from .genotype import Genotype, NetworkConfig, OperationKind


class SettingError(ValueError):
    """Invalid reduction table, setting, or setting label."""


@dataclass(frozen=True)
class ReductionTable:
    """Per-dataset ladder of reduction-factor values.

    ``test_resolutions`` carries the resize companions some datasets use for
    evaluation images; it is metadata only and no cost computation reads it.
    """

    name: str
    channels: tuple[int, ...]
    resolutions: tuple[int, ...]
    sample_ratios: tuple[float, ...]
    epoch_choices: tuple[int, ...]
    test_resolutions: tuple[int, ...] | None = None

    def __post_init__(self):
        for label, seq in (("channels", self.channels), ("resolutions", self.resolutions)):
            if not seq or any(v <= 0 for v in seq):
                raise SettingError("%s must be positive and non-empty" % label)
            if any(a <= b for a, b in zip(seq, seq[1:])):
                raise SettingError("%s must be strictly decreasing" % label)
        if not self.sample_ratios or any(not 0 < v <= 1 for v in self.sample_ratios):
            raise SettingError("sample_ratios must lie in (0, 1]")
        if any(a <= b for a, b in zip(self.sample_ratios, self.sample_ratios[1:])):
            raise SettingError("sample_ratios must be strictly decreasing")
        if not self.epoch_choices or any(v <= 0 for v in self.epoch_choices):
            raise SettingError("epoch_choices must be positive and non-empty")
        if any(a >= b for a, b in zip(self.epoch_choices, self.epoch_choices[1:])):
            raise SettingError("epoch_choices must be strictly increasing")
        if self.test_resolutions is not None and len(self.test_resolutions) != len(
            self.resolutions
        ):
            raise SettingError("test_resolutions must match resolutions in length")

    def validate_setting(self, s: "ReducedSetting") -> None:
        if not 0 <= s.c_idx < len(self.channels):
            raise SettingError(
                "channel index %d out of range for table %r" % (s.c_idx, self.name)
            )
        if not 0 <= s.r_idx < len(self.resolutions):
            raise SettingError(
                "resolution index %d out of range for table %r" % (s.r_idx, self.name)
            )
        if not 0 <= s.s_idx < len(self.sample_ratios):
            raise SettingError(
                "sample-ratio index %d out of range for table %r" % (s.s_idx, self.name)
            )

    def grid(
        self, epochs: Sequence[int] | None = None, *, c: Sequence[int] | None = None,
        r: Sequence[int] | None = None, s: Sequence[int] | None = None,
    ) -> list["ReducedSetting"]:
        """Cartesian grid of the ``c``, ``r`` and ``s`` level indices crossed
        with ``epochs``, in that nesting order; each defaults to every level
        of the table, and ``epochs`` to the table's epoch choices."""
        return [
            ReducedSetting(a, b, k, e)
            for a in (range(len(self.channels)) if c is None else c)
            for b in (range(len(self.resolutions)) if r is None else r)
            for k in (range(len(self.sample_ratios)) if s is None else s)
            for e in (self.epoch_choices if epochs is None else epochs)
        ]


# Published CIFAR-10 ladder. The channel entry at index 4 is the published
# constant 8 even though the halving rule lands on 9; the table wins.
CIFAR10_TABLE = ReductionTable(
    name="cifar10",
    channels=(36, 24, 18, 12, 8),
    resolutions=(32, 24, 16, 12, 8),
    sample_ratios=(1.0, 0.5, 0.25, 0.125),
    epoch_choices=(30, 60, 90, 120),
)

IMAGENET_TABLE = ReductionTable(
    name="imagenet",
    channels=(48, 32, 24, 16),
    resolutions=(224, 168, 112, 84),
    sample_ratios=(1.0,),
    epoch_choices=(10, 20, 30, 40),
    test_resolutions=(256, 192, 128, 96),
)

BUILTIN_TABLES = {t.name: t for t in (CIFAR10_TABLE, IMAGENET_TABLE)}

# Ground-Truth (full-cost) epoch counts used when a grid or analysis needs
# the reference setting for a built-in table.
GROUND_TRUTH_EPOCHS = {"cifar10": 600, "imagenet": 150}


@dataclass(frozen=True, order=True)
class ReducedSetting:
    """Indices (c_idx, r_idx, s_idx) into a table plus an epoch count."""

    c_idx: int
    r_idx: int
    s_idx: int
    epochs: int

    def __post_init__(self):
        if min(self.c_idx, self.r_idx, self.s_idx) < 0:
            raise SettingError("setting indices must be non-negative")
        if self.epochs <= 0:
            raise SettingError("epochs must be positive")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.c_idx, self.r_idx, self.s_idx)

    def with_epochs(self, epochs: int) -> "ReducedSetting":
        return ReducedSetting(self.c_idx, self.r_idx, self.s_idx, epochs)


def nominal_speedup(s: ReducedSetting) -> int:
    """2^(a+b+c) per-iteration speed-up over level (0, 0, 0); epochs do not enter."""
    return 2 ** (s.c_idx + s.r_idx + s.s_idx)


def derive_level(base: int, level: int) -> int:
    """Value of a reduction ladder at ``level``: base * (1/sqrt 2)^level,
    taken directly when integral, else the nearest number divisible by 4."""
    if base <= 0:
        raise SettingError("base must be positive")
    if level < 0:
        raise SettingError("level must be >= 0")
    if level % 2 == 0:
        half_steps = level // 2
        if base % (2**half_steps) == 0:
            return base // (2**half_steps)
    value = base * (0.5 ** (level / 2.0))
    return 4 * round(value / 4.0)


_LABEL_RE = re.compile(r"^c(\d+)r(\d+)s(\d+)e(\d+)$")


def format_label(s: ReducedSetting) -> str:
    return "c%dr%ds%de%d" % (s.c_idx, s.r_idx, s.s_idx, s.epochs)


def parse_label(label: str, table: ReductionTable | None = None) -> ReducedSetting:
    """Parse ``c{a}r{b}s{c}e{epochs}``; validates indices when a table is given."""
    m = _LABEL_RE.match(label.strip())
    if m is None:
        raise SettingError("malformed setting label %r (expected c#r#s#e#)" % label)
    s = ReducedSetting(int(m.group(1)), int(m.group(2)), int(m.group(3)), int(m.group(4)))
    if table is not None:
        table.validate_setting(s)
    return s


def load_table(path: str) -> ReductionTable:
    """Load a user-defined reduction table from a JSON document: an object
    whose keys are the :class:`ReductionTable` fields (``test_resolutions``
    may be left out), optionally with ``"kind": "reduction_table"``. An
    unknown or missing key, a value of the wrong type or a ladder the table
    rejects raises :class:`SettingError` naming the file and the key."""
    return documents.load(
        path, "reduction_table", ReductionTable, SettingError, kind_optional=True
    )


def resolve_table(spec: str) -> ReductionTable:
    """Built-in table by name, or a JSON table document by path."""
    if spec in BUILTIN_TABLES:
        return BUILTIN_TABLES[spec]
    return load_table(spec)


# --- analytic cost model -------------------------------------------------
#
# Multiply-accumulate counts per operation at channel count C and feature-map
# size H x W. Convolutions cost k_h*k_w*C_in*C_out*H*W; separable and
# factorized variants are the sum of their factor convolutions; dilated
# convolutions cost the same as dense ones of equal kernel; pooling and
# identity move C*H*W values; zeros is free.


def _op_mac(op: OperationKind, c_in: int, c_out: int, hw: float) -> float:
    if op is OperationKind.ZEROS:
        return 0.0
    if op in (
        OperationKind.IDENTITY,
        OperationKind.AVG_POOL_3X3,
        OperationKind.MAX_POOL_3X3,
        OperationKind.MAX_POOL_5X5,
        OperationKind.MAX_POOL_7X7,
    ):
        return float(c_out) * hw
    if op is OperationKind.CONV_1X1:
        return 1.0 * c_in * c_out * hw
    if op in (OperationKind.CONV_3X3, OperationKind.DIL_CONV_3X3):
        return 9.0 * c_in * c_out * hw
    if op is OperationKind.DIL_CONV_5X5:
        return 25.0 * c_in * c_out * hw
    if op is OperationKind.SEP_CONV_3X3:
        return (9.0 * c_in + 1.0 * c_in * c_out) * hw
    if op is OperationKind.SEP_CONV_5X5:
        return (25.0 * c_in + 1.0 * c_in * c_out) * hw
    if op is OperationKind.SEP_CONV_7X7:
        return (49.0 * c_in + 1.0 * c_in * c_out) * hw
    if op is OperationKind.CONV_1X3_3X1:
        return 6.0 * c_in * c_out * hw
    if op is OperationKind.CONV_1X7_7X1:
        return 14.0 * c_in * c_out * hw
    raise SettingError("no cost rule for operation %s" % op.value)


def _cell_mac(cell, c_in: int, c_out: int, hw: float) -> float:
    total = 0.0
    for node in cell.nodes:
        total += _op_mac(node.op_a, c_in, c_out, hw)
        total += _op_mac(node.op_b, c_in, c_out, hw)
    return total


def flops_estimate(
    g: Genotype,
    cfg: NetworkConfig,
    s: ReducedSetting,
    table: ReductionTable,
    per_epoch: bool = False,
) -> float:
    """MAC count of one forward pass of the stacked network under a setting.

    Layout: three stages of ``stack_n`` normal cells with a reduction cell
    between stages; channels double and the feature map halves at each
    reduction. With ``per_epoch`` the count is scaled by the sample ratio,
    giving cost per training epoch instead of per forward pass.
    """
    table.validate_setting(s)
    channels = table.channels[s.c_idx]
    side = table.resolutions[s.r_idx]

    total = 0.0
    c = channels
    hw = float(side) * side
    for stage in range(3):
        total += cfg.stack_n * _cell_mac(g.normal, c, c, hw)
        if stage < 2:
            hw = hw / 4.0
            total += _cell_mac(g.reduction, c, 2 * c, hw)
            c *= 2
    if per_epoch:
        total *= table.sample_ratios[s.s_idx]
    return total
