"""Contract every trainer-like evaluator implements.

An evaluator trains a genotype under a reduced setting over an epoch span
``[start_epoch, end_epoch)`` and reports the reached accuracy. Training is
resumable: the token returned for a span is the handle for continuing the
same run, so ``[0, E)`` followed by ``[E, 2E)`` with the returned token is
the supported continuation path. Implementations must be deterministic
given (genotype, setting, epoch span, evaluator seed).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Protocol

from .documents import UserError
from .genotype import Genotype
from .proxy import ReducedSetting


class EvalResult(NamedTuple):
    accuracy: float
    train_accuracy: Optional[float]
    resume_token: str


class EvaluatorFailure(UserError, RuntimeError):
    """A single evaluation failed; the caller may drop the candidate."""


class ContractViolation(EvaluatorFailure):
    """The caller broke the contract (wrong resume token, bad span)."""


class Evaluator(Protocol):
    def evaluate(
        self,
        genotype: Genotype,
        setting: ReducedSetting,
        start_epoch: int,
        end_epoch: int,
        resume_token: Optional[str] = None,
    ) -> EvalResult: ...


def check_span(start_epoch: int, end_epoch: int) -> None:
    if start_epoch < 0 or end_epoch <= start_epoch:
        raise ContractViolation(
            "bad epoch span [%d, %d)" % (start_epoch, end_epoch)
        )
