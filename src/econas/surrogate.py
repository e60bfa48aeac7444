"""Synthetic evaluator with known ground truth.

This bench is openly synthetic: it assigns every genotype a deterministic
"true quality" from its structure alone, then serves accuracies that
approach that quality along a saturating learning curve, distorted by a
setting-keyed bias and observation noise. The distortion scales are wired
so that cheaper settings disagree more with the full-cost ranking, lower
sample ratios behave like proportionally shorter training, and narrower
channels distort less, which makes the qualitative reduced-setting findings
reproducible and the search engine testable without any real training.

No claim of fidelity to real training dynamics is made; calibration
constants live in data/surrogate_cifar10.json with the default seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from . import documents
from .evaluator import ContractViolation, EvalResult, check_span
from .genotype import (
    CellSpec,
    Genotype,
    NodeSpec,
    OperationKind,
    OperationSet,
    OutputRule,
    legal_inputs,
)
from .proxy import ReducedSetting, ReductionTable
from .seeding import left_sum, signed_unit


class SurrogateError(ValueError):
    """Invalid surrogate parameters or space bounds."""


DEFAULT_OP_SCORES = {
    OperationKind.ZEROS: 0.00,
    OperationKind.IDENTITY: 0.30,
    OperationKind.MAX_POOL_7X7: 0.28,
    OperationKind.MAX_POOL_5X5: 0.31,
    OperationKind.AVG_POOL_3X3: 0.32,
    OperationKind.MAX_POOL_3X3: 0.34,
    OperationKind.CONV_1X1: 0.55,
    OperationKind.CONV_1X7_7X1: 0.58,
    OperationKind.CONV_1X3_3X1: 0.62,
    OperationKind.CONV_3X3: 0.68,
    OperationKind.DIL_CONV_3X3: 0.70,
    OperationKind.DIL_CONV_5X5: 0.72,
    OperationKind.SEP_CONV_7X7: 0.74,
    OperationKind.SEP_CONV_3X3: 0.76,
    OperationKind.SEP_CONV_5X5: 0.80,
}


def _non_negative(name, seq):
    if any(v < 0 for v in seq):
        raise SurrogateError("%s must be non-negative" % name)


@dataclass(frozen=True)
class SurrogateParams:
    """Calibration constants of the synthetic evaluator.

    ``beta_*`` scale the setting-keyed ranking bias per reduction index;
    deeper reduction distorts more, except ``beta_c`` which is non-increasing
    on purpose: narrower networks are modelled as the MORE faithful proxy.
    ``sigma_*`` scale observation noise the same way. Both decay with
    trained epochs at time constant ``tau`` while the quality signal
    saturates, so longer training always sharpens the ranking. ``op_scores``
    overrides ``DEFAULT_OP_SCORES``; operations it leaves out keep theirs.
    """

    op_scores: dict[OperationKind, float] = field(default_factory=dict)
    op_weight: float = 0.7
    connectivity_weight: float = 0.3
    quality_low: float = 0.30
    quality_high: float = 0.92
    tau: float = 40.0
    beta_c: tuple[float, ...] = (0.060, 0.042, 0.030, 0.022, 0.015)
    beta_r: tuple[float, ...] = (0.000, 0.018, 0.032, 0.046, 0.060)
    beta_s: tuple[float, ...] = (0.000, 0.045, 0.075, 0.095)
    sigma_base: float = 0.018
    sigma_c: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0)
    sigma_r: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0)
    sigma_s: tuple[float, ...] = (0.000, 0.008, 0.014, 0.020)
    sample_epoch_exponent: float = 1.0
    train_gap_scale: float = 0.09
    train_gap_jitter: float = 0.25
    seed: int = 7

    def __post_init__(self):
        object.__setattr__(self, "op_scores", {**DEFAULT_OP_SCORES, **self.op_scores})
        if self.tau <= 0:
            raise SurrogateError("tau must be positive")
        if not 0 < self.quality_low < self.quality_high < 1:
            raise SurrogateError("quality range must satisfy 0 < low < high < 1")
        for name, seq in (
            ("beta_c", self.beta_c),
            ("beta_r", self.beta_r),
            ("beta_s", self.beta_s),
            ("sigma_c", self.sigma_c),
            ("sigma_r", self.sigma_r),
            ("sigma_s", self.sigma_s),
        ):
            _non_negative(name, seq)
        if self.sigma_base < 0:
            raise SurrogateError("sigma_base must be non-negative")
        if any(a < b for a, b in zip(self.beta_c, self.beta_c[1:])):
            raise SurrogateError("beta_c must be non-increasing")
        for name, seq in (("beta_r", self.beta_r), ("beta_s", self.beta_s)):
            if any(a > b for a, b in zip(seq, seq[1:])):
                raise SurrogateError("%s must be non-decreasing" % name)
        for name, seq in (
            ("sigma_c", self.sigma_c),
            ("sigma_r", self.sigma_r),
            ("sigma_s", self.sigma_s),
        ):
            if any(a > b for a, b in zip(seq, seq[1:])):
                raise SurrogateError("%s must be non-decreasing" % name)

    def validate_for_table(self, table: ReductionTable) -> None:
        if len(self.beta_c) < len(table.channels):
            raise SurrogateError("beta_c shorter than table channel ladder")
        if len(self.beta_r) < len(table.resolutions):
            raise SurrogateError("beta_r shorter than table resolution ladder")
        if len(self.beta_s) < len(table.sample_ratios):
            raise SurrogateError("beta_s shorter than table sample-ratio ladder")
        if len(self.sigma_c) < len(table.channels) or len(self.sigma_r) < len(
            table.resolutions
        ) or len(self.sigma_s) < len(table.sample_ratios):
            raise SurrogateError("sigma ladders shorter than table ladders")

    def with_seed(self, seed: int) -> "SurrogateParams":
        return replace(self, seed=seed)

    @staticmethod
    def toy(seed: int = 7) -> "SurrogateParams":
        """Fast-saturating variant for small enumerable spaces: the learning
        curve converges within a few epochs so short-budget searches see a
        mostly honest ranking."""
        return SurrogateParams(
            tau=6.0,
            beta_c=(0.040, 0.028, 0.020, 0.015, 0.010),
            beta_r=(0.000, 0.012, 0.022, 0.030, 0.040),
            beta_s=(0.000, 0.030, 0.050, 0.065),
            sigma_base=0.010,
            sigma_s=(0.000, 0.005, 0.009, 0.012),
            seed=seed,
        )

    @staticmethod
    def load(path: str) -> "SurrogateParams":
        """Read a ``surrogate_params`` document such as the one :meth:`save`
        writes. Keys left out take the defaults above; an unknown key, a
        value of the wrong type or one ``__post_init__`` rejects raises
        :class:`SurrogateError` naming the file and the key."""
        return documents.load(path, "surrogate_params", SurrogateParams, SurrogateError)

    def save(self, path: str) -> None:
        documents.write(path, "surrogate_params", asdict(self))


def true_quality(g: Genotype, params: SurrogateParams) -> float:
    """Setting-independent quality in (0, 1): mean operation preference over
    all op slots plus a bonus for wiring in many distinct inputs."""
    scores = []
    distinct = 0
    possible = 0
    for cell in (g.normal, g.reduction):
        refs = set()
        for node in cell.nodes:
            scores.append(params.op_scores[node.op_a])
            scores.append(params.op_scores[node.op_b])
            refs.add(node.input_a)
            refs.add(node.input_b)
        distinct += len(refs)
        possible += cell.node_count + 1
    op_mean = left_sum(scores) / len(scores)
    connectivity = distinct / possible
    raw = params.op_weight * op_mean + params.connectivity_weight * connectivity
    raw = min(max(raw, 0.0), 1.0)
    return params.quality_low + (params.quality_high - params.quality_low) * raw


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def surrogate_evaluate(
    g: Genotype,
    setting: ReducedSetting,
    start_epoch: int,
    end_epoch: int,
    params: SurrogateParams,
    table: ReductionTable,
    resume_token: Optional[str] = None,
) -> EvalResult:
    """Deterministic accuracy for a genotype trained to ``end_epoch``.

    The curve depends only on the total trained epochs, never on how the
    span was split, so resuming from a checkpoint token reproduces direct
    evaluation exactly. Sample-ratio reduction acts as an effective-epoch
    scaling: training on half the data for 2e epochs sees the iteration
    count of e full epochs plus the extra sample bias.
    """
    check_span(start_epoch, end_epoch)
    table.validate_setting(setting)
    params.validate_for_table(table)
    ghash = g.content_hash
    if resume_token is not None and start_epoch > 0:
        expected = make_token(ghash, start_epoch)
        if resume_token != expected:
            raise ContractViolation(
                "resume token %r does not continue %s at epoch %d"
                % (resume_token, ghash[:12], start_epoch)
            )

    a, b, c = setting.dims
    ratio = table.sample_ratios[c] ** params.sample_epoch_exponent
    e_eff = end_epoch * ratio
    decay = math.exp(-e_eff / params.tau)

    quality = true_quality(g, params)
    signal = quality * (1.0 - decay)
    bias_amp = params.beta_c[a] + params.beta_r[b] + params.beta_s[c]
    bias = bias_amp * signed_unit(ghash, "bias", a, b, c, params.seed) * decay
    noise_amp = (
        params.sigma_base + params.sigma_c[a] + params.sigma_r[b] + params.sigma_s[c]
    )
    noise = noise_amp * signed_unit(ghash, "noise", a, b, c, params.seed) * decay

    accuracy = _clamp01(signal + bias + noise)
    width_frac = table.channels[a] / table.channels[0]
    gap = params.train_gap_scale * width_frac * (
        1.0 + params.train_gap_jitter * signed_unit(ghash, "gap", params.seed)
    )
    train_accuracy = _clamp01(accuracy + gap)
    return EvalResult(accuracy, train_accuracy, make_token(ghash, end_epoch))


def make_token(genotype_hash: str, epochs: int) -> str:
    return "s1:%s:%d" % (genotype_hash, epochs)


class SurrogateEvaluator:
    """Binds params + table into the evaluator contract."""

    def __init__(self, params: SurrogateParams, table: ReductionTable):
        self.params = params
        self.table = table
        self.params.validate_for_table(self.table)

    def evaluate(
        self,
        genotype: Genotype,
        setting: ReducedSetting,
        start_epoch: int,
        end_epoch: int,
        resume_token: Optional[str] = None,
    ) -> EvalResult:
        return surrogate_evaluate(
            genotype, setting, start_epoch, end_epoch, self.params, self.table, resume_token
        )


@dataclass(frozen=True)
class ToySpace:
    """Complete enumeration of a small genotype space with known quality."""

    node_count: int
    op_set: OperationSet
    output_rule: OutputRule
    genotypes: tuple[Genotype, ...]
    quality: dict  # genotype hash -> true quality

    def quality_threshold(self, top_fraction: float) -> float:
        """Smallest quality still inside the true top ``top_fraction``."""
        if not 0 < top_fraction <= 1:
            raise SurrogateError("top_fraction must be in (0, 1]")
        ordered = sorted(self.quality.values(), reverse=True)
        count = max(1, math.ceil(top_fraction * len(ordered)))
        return ordered[count - 1]

    def in_top_fraction(self, genotype_hash: str, top_fraction: float) -> bool:
        if genotype_hash not in self.quality:
            raise SurrogateError("hash %s not part of this space" % genotype_hash[:12])
        return self.quality[genotype_hash] >= self.quality_threshold(top_fraction)


def space_size(node_count: int, op_set_size: int) -> int:
    """Number of distinct genotypes: per-cell choices squared."""
    per_cell = 1
    for j in range(node_count):
        per_cell *= (j + 2) * (j + 2) * op_set_size * op_set_size
    return per_cell * per_cell


def enumerate_space(
    node_count: int,
    op_set: OperationSet,
    output_rule: OutputRule = OutputRule.UNUSED_ONLY,
    params: SurrogateParams | None = None,
    cap: int = 10**6,
) -> ToySpace:
    """Enumerate every genotype within the bounds and score each one."""
    if node_count < 1:
        raise SurrogateError("node_count must be >= 1")
    total = space_size(node_count, len(op_set.members))
    if total > cap:
        raise SurrogateError(
            "space of %d genotypes exceeds the cap of %d" % (total, cap)
        )
    if params is None:
        params = SurrogateParams.toy()

    node_choices = []
    for j in range(node_count):
        refs = legal_inputs(j)
        node_choices.append(
            [
                NodeSpec(ia, ib, oa, ob)
                for ia in refs
                for ib in refs
                for oa in op_set.members
                for ob in op_set.members
            ]
        )
    cells = [
        CellSpec(tuple(combo), output_rule)
        for combo in itertools.product(*node_choices)
    ]
    genotypes = []
    quality = {}
    for normal in cells:
        for reduction in cells:
            g = Genotype(normal, reduction, op_set)
            genotypes.append(g)
            quality[g.content_hash] = true_quality(g, params)
    if len(quality) != total:
        raise SurrogateError(
            "enumeration produced %d distinct hashes, expected %d"
            % (len(quality), total)
        )
    return ToySpace(node_count, op_set, output_rule, tuple(genotypes), quality)
