"""Deterministic derivation of independent random streams.

All randomness in the package flows from explicit seeds through this module:
a child stream is identified by a tuple of string-able parts hashed with
SHA-256, so derived streams are stable across runs, platforms, and Python
versions, and never depend on the order in which sibling streams are drawn.
Float sums that results depend on go through :func:`left_sum`, for the same
reason.
"""

from __future__ import annotations

import hashlib
import random
from functools import reduce
from operator import add


def derive_seed(*parts) -> int:
    material = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def unit_interval(*parts) -> float:
    """Deterministic value in [0, 1) keyed by the given parts."""
    return derive_seed(*parts) / float(1 << 64)


def signed_unit(*parts) -> float:
    """Deterministic value in [-1, 1) keyed by the given parts."""
    return 2.0 * unit_interval(*parts) - 1.0


def left_sum(values):
    """The sum of ``values`` added one by one from the left, as ``sum`` does
    up to Python 3.11; from 3.12 on, ``sum`` compensates float rounding
    (``sum([1.0, 1e100, 1.0, -1e100])`` is 0.0 here and 2.0 there)."""
    return reduce(add, values, 0)
