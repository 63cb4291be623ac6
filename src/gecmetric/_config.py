"""Every knob of the metrics, the ridge fit and the external checker, with
its check, and the usable CPU count. Metric modules re-export these names;
the CLI reads defaults and checks every knob here without loading a metric."""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

from .errors import ValidationError

SAMPLED = "sampled"
MEAN_OVER_ALL = "mean-over-all"
MAX_ITERATIONS = 10_000  # reference draws per sentence, as analysis.MAX_TRIALS
# Seconds an external checker may take to answer one request.
CHECKER_TIMEOUT = 10.0


@dataclass(frozen=True)
class GleuConfig:
    """Knobs for the n-gram metric.

    ``multi_ref_mode`` selects how multiple references combine: ``sampled``
    averages over ``iterations`` draws of one reference per sentence
    (seeded, reproducible, at most ``MAX_ITERATIONS``); ``mean-over-all``
    averages over every reference deterministically.
    """

    max_n: int = 4
    iterations: int = 500
    rng_seed: int = 0
    multi_ref_mode: str = SAMPLED

    def __post_init__(self):
        # no tuple holds more than sys.maxsize // 8 items; a max_n below
        # that can still ask for more memory than there is
        for name, top in (("max_n", sys.maxsize // 8), ("iterations", MAX_ITERATIONS)):
            value = getattr(self, name)
            if not 1 <= value <= top:
                raise ValidationError(f"{name} must be in [1, {top}], got {value}")
        if self.multi_ref_mode not in (SAMPLED, MEAN_OVER_ALL):
            raise ValidationError(
                f"multi_ref_mode must be {SAMPLED!r} or {MEAN_OVER_ALL!r}, "
                f"got {self.multi_ref_mode!r}"
            )


@dataclass(frozen=True)
class M2Config:
    beta: float = 0.5
    max_unchanged_words: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValidationError(f"beta must be finite and >= 0, got {self.beta}")
        if math.isinf(self.beta * self.beta):  # every F_beta would be nan
            raise ValidationError(f"beta squared must be finite, got beta {self.beta}")
        if self.max_unchanged_words < 0:
            raise ValidationError(
                f"max_unchanged_words must be >= 0, got {self.max_unchanged_words}"
            )


@dataclass(frozen=True)
class IMeasureConfig:
    weight: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValidationError(
                f"weight must be finite and positive, got {self.weight}"
            )


def check_timeout(timeout: float) -> None:
    """Raise :class:`ValidationError` unless a checker can wait ``timeout`` seconds."""
    if not 0 < timeout <= threading.TIMEOUT_MAX:  # also rejects nan
        raise ValidationError(
            f"timeout must be in (0, {threading.TIMEOUT_MAX:.0f}] seconds, got {timeout}"
        )


def check_alpha(alpha: float) -> None:
    """Raise :class:`ValidationError` unless ``alpha`` is a ridge penalty."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha}")


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
