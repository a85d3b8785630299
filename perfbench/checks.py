"""Output checks and the attempted/failed ledger of one run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


@dataclass
class Ledger:
    """Operations attempted and failed.  Every check is one operation, and a
    failed check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        self.checks.append((name, bool(ok)))
        if not ok:
            self.record_failure(f"check failed: {name}", "")
        return bool(ok)

    def record_failure(self, kind: str, detail: str) -> None:
        self.failed += 1
        self.failures.append((kind, detail))

    @property
    def correct(self) -> bool:
        return self.failed == 0


def identical(left: np.ndarray, right: np.ndarray) -> bool:
    """Bit-identical arrays: same shape, dtype and every value."""
    left, right = np.asarray(left), np.asarray(right)
    return left.shape == right.shape and left.dtype == right.dtype \
        and bool(np.array_equal(left, right))


def rows_sum_to_one(probabilities: np.ndarray) -> bool:
    """Every row is a probability distribution, within the dtype's rounding."""
    probabilities = np.asarray(probabilities)
    if probabilities.ndim != 2 or not np.isfinite(probabilities).all() \
            or (probabilities < 0).any():
        return False
    tolerance = 64 * np.finfo(probabilities.dtype).eps * probabilities.shape[1]
    return bool(np.all(np.abs(probabilities.sum(axis=1) - 1.0) <= tolerance))
