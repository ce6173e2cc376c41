"""Transmission policies the simulator can replay.

Each policy maps the current age to a transmit probability, applied only when
the channel is sensed idle; busy-sensed slots never transmit.  Its
``tail_age`` is the first age from which that probability no longer changes,
so the simulator reads ages 1..tail_age and treats every older age as
tail_age.  A threshold policy is the randomized one at mu = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import _check_gamma, _check_mu, _check_p0


@dataclass(frozen=True)
class RandomizedThresholdPolicy:
    """Transmit with probability mu at age gamma1, always at larger ages."""

    gamma1: int
    mu: float

    def __post_init__(self):
        # a whole float such as 3.0 is kept as the int the table is read by
        object.__setattr__(self, "gamma1", _check_gamma(self.gamma1))
        _check_mu(self.mu)

    @property
    def tail_age(self) -> int:
        return self.gamma1 if self.mu == 1.0 else self.gamma1 + 1

    def transmit_probability(self, delta: int) -> float:
        if delta > self.gamma1:
            return 1.0
        return self.mu if delta == self.gamma1 else 0.0


@dataclass(frozen=True)
class ThresholdPolicy(RandomizedThresholdPolicy):
    """Transmit iff sensed idle and age >= gamma1: the randomized policy at mu = 1."""

    mu: float = field(default=1.0, init=False, repr=False)


@dataclass(frozen=True)
class BernoulliAccessPolicy:
    """Transmit with fixed probability p0 at every idle-sensed slot."""

    p0: float

    def __post_init__(self):
        _check_p0(self.p0)

    @property
    def tail_age(self) -> int:
        return 1

    def transmit_probability(self, delta: int) -> float:
        return self.p0


@dataclass(frozen=True)
class TabularPolicy:
    """Transmit probabilities per age; ages past the table reuse the last entry."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) == 0:
            raise ValueError("probs must be non-empty")
        if any(not (0.0 <= p <= 1.0) for p in self.probs):
            raise ValueError("transmit probabilities must be in [0, 1]")

    @property
    def tail_age(self) -> int:
        return len(self.probs)

    def transmit_probability(self, delta: int) -> float:
        return self.probs[min(delta, len(self.probs)) - 1]
