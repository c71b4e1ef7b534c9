"""Seeded Monte Carlo driver for decoder experiments.

A master seed plus the trial counter derive an independent substream per
trial (SHA-256 of "seed:trial"), so any single trial is reproducible in
isolation and the whole run is byte-deterministic regardless of execution
order.  Trials could run in parallel over the shared immutable code; the
sequential loop here produces the identical result.

The default error model draws a uniform support of exact weight t, matching
how the decoding guarantees are stated; an i.i.d. flip model is available
for threshold-style sweeps, and an exhaustive sweep model enumerates every
support of weight t, up to 2^20 of them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .css import CssCode
from .decoder import DecoderConfig, decode, z_syndrome
from .errors import BudgetExceededError, ValidationError
from .gf2 import F2Vector
from .jsonio import fraction_to_json

_SWEEP_BUDGET = 1 << 20            # supports a sweep may decode, as many as the kernel budget


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation campaign: an error model, a trial count, and a seed.

    Exactly one of `weight` (exact-weight model; with sweep=True every
    support of that weight is enumerated and `trials` is ignored) or
    `flip_probability` (i.i.d. model) must be given.  The seed fully
    determines the trial stream.
    """

    epsilon: Fraction
    trials: int = 0
    seed: int = 0
    weight: Optional[int] = None
    flip_probability: Optional[Fraction] = None
    sweep: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        models = (self.weight is not None) + (self.flip_probability is not None)
        if models != 1:
            raise ValidationError("specify exactly one error model (weight= or flip_probability=)")
        if self.sweep and self.weight is None:
            raise ValidationError("sweep mode needs the exact-weight model")
        if self.trials < 0:
            raise ValidationError("trials must be nonnegative")
        if self.weight is not None and self.weight < 0:
            raise ValidationError(f"error weight must be nonnegative, got {self.weight}")
        if self.flip_probability is not None:
            p = Fraction(self.flip_probability)
            if not 0 <= p <= 1:
                raise ValidationError(f"flip probability {p} outside [0, 1]")
            object.__setattr__(self, "flip_probability", p)
        # The decoder settings are checked here, before the first trial.
        DecoderConfig(epsilon=self.epsilon)

    def echo(self) -> dict:
        return {
            "epsilon": fraction_to_json(self.epsilon),
            "trials": self.trials,
            "seed": self.seed,
            "weight": self.weight,
            "flip_probability": fraction_to_json(self.flip_probability)
            if self.flip_probability is not None else None,
            "sweep": self.sweep,
            # Fixed by the harness: the decoder's default cap, a residual that
            # is always checked and no minimal-representative search.
            "iteration_cap": DecoderConfig.iteration_cap,
            "check_residual": True,
            "check_minimal_representative": False,
        }


@dataclass(frozen=True)
class TrialRecord:
    index: int
    error_weight: int
    syndrome_weight: int
    outcome: str
    iterations: int
    residual_in_stabilizer: bool
    max_updated_syndromes: int

    @property
    def success(self) -> bool:
        return self.outcome == "success" and self.residual_in_stabilizer

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "error_weight": self.error_weight,
            "syndrome_weight": self.syndrome_weight,
            "outcome": self.outcome,
            "iterations": self.iterations,
            "residual_in_stabilizer": self.residual_in_stabilizer,
            "max_updated_syndromes": self.max_updated_syndromes,
            "minimal_representative_weights": None,     # no such search runs
        }


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[TrialRecord, ...]
    success_rate: Optional[Fraction]
    mean_iterations: Optional[Fraction]
    max_iterations: int
    iterations_slope: Optional[float]

    def to_json(self) -> dict:
        return {
            "trials": [r.to_json() for r in self.records],
            "aggregates": {
                "count": len(self.records),
                "success_rate": fraction_to_json(self.success_rate)
                if self.success_rate is not None else None,
                "mean_iterations": fraction_to_json(self.mean_iterations)
                if self.mean_iterations is not None else None,
                "max_iterations": self.max_iterations,
                "iterations_vs_syndrome_slope": self.iterations_slope,
            },
        }


def derive_trial_seed(master_seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _iter_errors(code: CssCode, config: ExperimentConfig):
    n = code.n
    if config.sweep:
        for i, support in enumerate(itertools.combinations(range(n), config.weight)):
            yield i, frozenset(support)
        return
    for i in range(config.trials):
        rng = random.Random(derive_trial_seed(config.seed, i))
        if config.weight is not None:
            yield i, frozenset(rng.sample(range(n), config.weight))
        else:
            p = config.flip_probability
            threshold = float(p)
            yield i, frozenset(q for q in range(n) if rng.random() < threshold)


def run_simulation(code: CssCode, config: ExperimentConfig) -> ExperimentResult:
    """Decode a stream of sampled (or swept) Z errors and aggregate outcomes.

    Success means the syndrome cleared and the injected error plus the
    correction lies in the Z-stabilizer group (membership in the row space
    of Hz, tested by rank reduction).  A sweep of more than `_SWEEP_BUDGET`
    supports is refused before the first decode.
    """
    if config.weight is not None and config.weight > code.n:
        raise ValidationError(f"error weight {config.weight} exceeds n = {code.n}")
    if config.sweep and math.comb(code.n, config.weight) > _SWEEP_BUDGET:
        raise BudgetExceededError(
            f"a weight-{config.weight} sweep decodes C({code.n}, {config.weight}) = "
            f"{math.comb(code.n, config.weight)} supports, over the budget of {_SWEEP_BUDGET}")
    decoder_config = DecoderConfig(epsilon=config.epsilon, keep_flip_sets=False)
    records = []
    for index, support in _iter_errors(code, config):
        error = F2Vector.from_support(code.n, support)
        syndrome = z_syndrome(code, error)
        result = decode(code, syndrome, decoder_config)
        residual_ok = code.z_stabilizers.contains(error ^ result.correction)
        records.append(TrialRecord(
            index=index,
            error_weight=error.weight,
            syndrome_weight=syndrome.weight,
            outcome=result.outcome,
            iterations=result.iterations,
            residual_in_stabilizer=residual_ok,
            max_updated_syndromes=result.max_updated_syndromes,
        ))
    return ExperimentResult(
        records=tuple(records),
        success_rate=_success_rate(records),
        mean_iterations=_mean_iterations(records),
        max_iterations=max((r.iterations for r in records), default=0),
        iterations_slope=iterations_slope(records),
    )


def _success_rate(records: list[TrialRecord]) -> Optional[Fraction]:
    if not records:
        return None
    return Fraction(sum(1 for r in records if r.success), len(records))


def _mean_iterations(records: list[TrialRecord]) -> Optional[Fraction]:
    if not records:
        return None
    return Fraction(sum(r.iterations for r in records), len(records))


def iterations_slope(records: Iterable[TrialRecord]) -> Optional[float]:
    """Least-squares slope of iterations against initial syndrome weight.

    None when fewer than two distinct syndrome weights are present.
    """
    points = [(r.syndrome_weight, r.iterations) for r in records]
    if len({x for x, _ in points}) < 2:
        return None
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx
