"""Closed-form privacy and speed formulas for muting-parameterized gossip,
plus the mean-dynamics model of the active-node fraction.

Notation used throughout: n nodes of which f are curious, muting parameter
s (a node stays active after each send with probability s).  Privacy is
stated as (epsilon, delta) source indistinguishability -- for every pair of
candidate sources i, j and output set S, p_i(S) <= e^eps * p_j(S) + delta --
and as a prediction-uncertainty constant c that caps the success of any
source-location attack under a uniform prior at 1/(1+c).

All series are evaluated in closed geometric form; logarithms in speed
bounds are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import GossipConfig


@dataclass(frozen=True)
class PrivacyReport:
    """A (epsilon, delta, c) triple together with the regime it came from."""

    epsilon: float
    delta: float
    c: float
    regime: str

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.c < 0.0:
            raise ValueError(f"c must be >= 0, got {self.c}")

    @property
    def attack_success_cap(self) -> float:
        """Upper bound on the success probability of any source-location
        attack under a uniform prior: 1 / (1 + c)."""
        return 1.0 / (1.0 + self.c)


def _check_fn(f: int, n: int, s: float = 0.0) -> None:
    """Reject (n, f, s) by GossipConfig's rule: n >= 2, f in [0, n-2] and
    s in [0, 1]."""
    GossipConfig(n=n, f=f, s=s)


def optimal_delta(epsilon: float, f: int, n: int) -> float:
    """Best achievable delta at a given epsilon, over all gossip protocols.

    delta = (f/n) * (1 - (e^eps - 1)/f), clamped at 0 (delta is a
    probability bound; it reaches 0 exactly at e^eps = f + 1).  The s=0
    protocol attains this.  With no curious nodes there is no leak.
    """
    _check_fn(f, n)
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    if f == 0:
        return 0.0
    return max(0.0, (f / n) * (1.0 - (math.exp(epsilon) - 1.0) / f))


def optimal_c(f: int, n: int) -> float:
    """Best achievable prediction-uncertainty constant: n/(f+1) - 1,
    attained by the s=0 protocol."""
    _check_fn(f, n)
    return n / (f + 1) - 1.0


def param_delta_exact(s: float, f: int, n: int) -> float:
    """Exact delta certified for the muting protocol at epsilon = 0: the
    probability that the source contacts a curious node before its first
    deactivation.  The source sends a geometric number of messages (stop
    probability 1-s after each), each hitting a curious node with
    probability f/n, so delta = (f/n) / (1 - s(1-f/n)): 1 at s=1 (standard
    push admits no nontrivial delta) and f/n at s=0.
    """
    _check_fn(f, n, s)
    if s == 1.0:
        return 1.0
    return f / n / (1.0 - s * (1.0 - f / n))


def param_delta_bound(s: float, f: int, n: int, r: int = 1) -> float:
    """Truncation upper bound on param_delta_exact:
    1 - (1 - s^r) (1 - f/n)^r.  At r=1 this is s + (1-s) f/n."""
    _check_fn(f, n, s)
    if not r >= 1:
        raise ValueError("r must be >= 1")
    return 1.0 - (1.0 - s**r) * (1.0 - f / n) ** r


def param_c(s: float, f: int, n: int) -> float:
    """Prediction-uncertainty constant certified for the muting protocol:
    (1 - (f+1)/n) (1 - s).  Vanishes at s=1."""
    _check_fn(f, n, s)
    return (1.0 - (f + 1) / n) * (1.0 - s)


# The source-disclosure probability is the exact delta itself.
source_disclosure_prob = param_delta_exact


def strong_adversary_bounds(f: int, n: int) -> PrivacyReport:
    """Privacy limits against an adversary that also sees global send
    indices: delta >= f/n and c = 0, both tight (matched at s=0)."""
    _check_fn(f, n)
    return PrivacyReport(epsilon=0.0, delta=f / n, c=0.0, regime="strong-adversary")


def spreading_round_bound(n: int, s: float, c_coeff: float = 1.0) -> float:
    """Rounds for the synchronous engine to send c_coeff * n * ln(n)
    messages (with high probability, n large): 6 * c_coeff * ln(n) / s."""
    _check_fn(0, n, s)
    if s <= 0.0:
        raise ValueError("s must be > 0")
    if not c_coeff >= 1.0:
        raise ValueError("c_coeff must be >= 1")
    return 6.0 * c_coeff * math.log(n) / s


@dataclass(frozen=True)
class MeanDynamics:
    """One-round mean map of the active fraction for the synchronous engine.

    With a fraction alpha of nodes active, alpha*n messages land uniformly,
    so a given node receives none with probability
    p_u(alpha) = (1 - 1/n)^(alpha n); it is active next round if it received
    a message or was active, received none, and kept its activity (prob. s):

        step(alpha) = 1 - p_u(alpha) * (1 - alpha * s)

    For s > 0 the map has a fixed point alpha* on (0, 1] -- the plateau the
    simulated active fraction settles at.
    """

    s: float
    n: int

    def __post_init__(self):
        _check_fn(0, self.n, self.s)  # the mean map has no f

    def step(self, alpha: float) -> float:
        """Expected next-round active fraction given fraction alpha now."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        return 1.0 - (1.0 - 1.0 / self.n) ** (alpha * self.n) * (1.0 - alpha * self.s)

    @property
    def growth_threshold(self) -> float:
        """alpha_s = s / (1 + 2s): below it, step(alpha) >= (1 + s/2) alpha
        (the exponential-growth regime)."""
        return self.s / (1.0 + 2.0 * self.s)

    def fixed_point(self) -> float:
        """The root alpha* of step(alpha) = alpha on (0, 1], by bracketing
        bisection to absolute tolerance 1e-10.

        Requires s > 0.  Raises if no bracket with a sign change exists
        (degenerate s: no plateau).
        """
        if self.s <= 0.0:
            raise ValueError("fixed point requires s > 0")
        g = lambda a: self.step(a) - a
        hi = 1.0
        g_hi = g(hi)
        if g_hi == 0.0:  # s = 1: nobody ever deactivates, alpha* = 1
            return hi
        lo = min(self.growth_threshold, 0.5)
        while g(lo) <= 0.0:
            lo /= 2.0
            if lo < 1e-15:
                raise ArithmeticError("no plateau: no sign change on (0, 1]")
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def mean_fixed_point(s: float, n: int) -> float:
    """Convenience wrapper: MeanDynamics(s, n).fixed_point()."""
    return MeanDynamics(s=s, n=n).fixed_point()

