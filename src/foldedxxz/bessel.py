"""Certified Bessel weights for the freely hopping impurity.

The impurity amplitude on background position ``n`` at time ``t`` is
``(-i)^n J_n(4 J t)`` (coupling ``J = 1`` throughout, times in units of
``1/J``).  This module evaluates the full weight table by Miller's
backward recurrence with final normalization and certifies the quadratic
tail ``sum_{|n|>N} J_n^2`` against a tolerance, so that truncating the
impurity sum is invisible at the requested precision.

The auxiliary cumulative ``f(x, t) = sum_{n < x} J_n(4 J t)^2`` is the
probability that the impurity index lies strictly below ``x``; its
stationary-phase form ``1/2 + arcsin(x / 4 J t) / pi`` is provided as
``position_cdf_asym`` with hard clamping outside the light cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_PHASES = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)  # (-i)^n for n mod 4

# largest order cutoff a table may have (about Jt = 2.5e5); a request
# beyond it is refused before anything is allocated
MAX_ORDER_CUTOFF = 10**6


class ToleranceUnreachable(Exception):
    """Requested tail tolerance is below what float64 arithmetic supports."""


def default_order_cutoff(argument: float) -> int:
    """Truncation order for Bessel argument ``x``: x + 10 x^(1/3) + 20."""
    x = abs(float(argument))
    return int(math.ceil(x + 10.0 * x ** (1.0 / 3.0) + 20.0))


class AmplitudeTable:
    """Amplitudes ``(-i)^n values[n - n_lo]`` for ``n = n_lo..n_hi``.

    Subclasses provide ``n_lo``, ``n_hi`` and the real ``values``.  The
    cumulative weight ``sum_{m < n} values[m]^2`` is read from one prefix-sum
    table, so the weight of any range of impurity indices costs two lookups.
    """

    @cached_property
    def _prefix(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.squares())])

    def squares(self) -> np.ndarray:
        return self.values * self.values

    def amplitudes(self) -> np.ndarray:
        return impurity_phases(np.arange(self.n_lo, self.n_hi + 1)) * self.values

    def weight_below(self, ns) -> np.ndarray:
        """Stored weight of the indices strictly below each integer in ``ns``."""
        k = np.clip(np.asarray(ns, dtype=np.int64) - self.n_lo, 0, len(self.values))
        return self._prefix[k]

    @property
    def total(self) -> float:
        """Stored weight of every index."""
        return float(self._prefix[-1])


@dataclass(frozen=True)
class BesselWeights(AmplitudeTable):
    """Table of ``J_n(4 J t)`` for ``|n| <= order_cutoff`` plus tail bound.

    ``values[order_cutoff + n]`` holds ``J_n``; negative orders are stored
    through the exact reflection ``J_{-n} = (-1)^n J_n`` so the symmetry is
    bit-exact.  ``tail_bound`` certifies ``|sum_n J_n^2 - 1|`` over the
    stored range.
    """

    time: float
    coupling: float
    argument: float
    order_cutoff: int
    values: np.ndarray
    tail_bound: float

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.order_cutoff, self.order_cutoff + 1)

    @property
    def n_lo(self) -> int:
        """Lowest impurity index of the table."""
        return -self.order_cutoff

    @property
    def n_hi(self) -> int:
        """Highest impurity index of the table."""
        return self.order_cutoff

    def j(self, n: int) -> float:
        """J_n(4 J t); zero beyond the certified cutoff."""
        if abs(n) > self.order_cutoff:
            return 0.0
        return float(self.values[self.order_cutoff + n])

    def j_array(self, n_lo: int, n_hi: int) -> np.ndarray:
        """Values for n in [n_lo, n_hi], zero-padded beyond the cutoff."""
        out = np.zeros(n_hi - n_lo + 1)
        lo = max(n_lo, -self.order_cutoff)
        hi = min(n_hi, self.order_cutoff)
        if lo <= hi:
            out[lo - n_lo : hi - n_lo + 1] = self.values[
                lo + self.order_cutoff : hi + self.order_cutoff + 1
            ]
        return out

    def phase(self, n: int) -> complex:
        """(-i)^n."""
        return _PHASES[n % 4]

    def amplitude(self, n: int) -> complex:
        """Impurity amplitude (-i)^n J_n(4 J t)."""
        return self.phase(n) * self.j(n)

    def cdf(self, x: float) -> float:
        """sum over n < x of J_n^2 (strict inequality)."""
        n = min(max(math.ceil(x), self.n_lo), self.n_hi + 1)
        return float(self.weight_below(n))


def impurity_phases(ns: np.ndarray) -> np.ndarray:
    """(-i)^n for each impurity index in ``ns``."""
    return np.asarray(_PHASES)[np.mod(ns, 4)]


def _miller_table(x: float, n_max: int) -> np.ndarray:
    """J_0..J_{n_max} by downward recurrence, normalized by the even-sum rule."""
    start = n_max + max(24, int(2.0 * math.sqrt(n_max + 1)))
    vals = np.zeros(start + 2)
    vals[start] = 1e-160
    for n in range(start, 0, -1):
        vals[n - 1] = (2.0 * n / x) * vals[n] - vals[n + 1]
        if abs(vals[n - 1]) > 1e250:
            vals[n - 1 :] *= 1e-250
    # J_0 + 2 (J_2 + J_4 + ...) = 1
    norm = vals[0] + 2.0 * math.fsum(vals[2 : start + 1 : 2])
    return vals[: n_max + 1] / norm


@lru_cache(maxsize=64)
def bessel_weights(t: float, tol: float = 1e-12, coupling: float = 1.0) -> BesselWeights:
    """Weight table for time ``t`` with certified tail below ``tol``.

    The cutoff starts at ``default_order_cutoff(4 J t)`` and grows until the
    normalization deficit ``|sum J_n^2 - 1|`` drops below ``tol``.  A cutoff
    beyond ``MAX_ORDER_CUTOFF`` raises ``ValueError`` before the table is
    allocated.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and non-negative, got {t!r}")
    if not 0.0 < tol <= 1e-8:
        raise ValueError("tolerance must be in (0, 1e-8]")
    x = 4.0 * coupling * float(t)
    n_cut = default_order_cutoff(x)
    if x == 0.0:
        values = np.zeros(2 * n_cut + 1)
        values[n_cut] = 1.0
        return BesselWeights(t, coupling, x, n_cut, values, 0.0)
    for _ in range(6):
        if n_cut > MAX_ORDER_CUTOFF:
            raise ValueError(
                f"time {t!r} needs Bessel order cutoff {n_cut}, "
                f"beyond the budget of {MAX_ORDER_CUTOFF} orders"
            )
        pos = _miller_table(x, n_cut)
        values = np.empty(2 * n_cut + 1)
        values[n_cut:] = pos
        signs = np.where(np.arange(1, n_cut + 1) % 2 == 0, 1.0, -1.0)
        values[:n_cut] = (signs * pos[1:])[::-1]
        deficit = abs(math.fsum(values * values) - 1.0)
        if deficit < tol:
            return BesselWeights(t, coupling, x, n_cut, values, deficit)
        n_cut += max(32, n_cut // 4)
    raise ToleranceUnreachable(
        f"tail bound {deficit:.3e} not below tol={tol:.1e} at cutoff {n_cut}"
    )


def position_cdf(x: float, weights: BesselWeights) -> float:
    """Exact ``f(x, t)``: probability that the impurity index is < x."""
    return weights.cdf(x)


def position_cdf_asym(x: float, t: float, coupling: float = 1.0) -> float:
    """Asymptotic ``f``: 1/2 + arcsin(x/4Jt)/pi, clamped outside the cone."""
    light_cone = 4.0 * coupling * t
    if light_cone == 0.0:
        return 0.0 if x <= 0 else 1.0
    if x <= -light_cone:
        return 0.0
    if x >= light_cone:
        return 1.0
    return 0.5 + math.asin(x / light_cone) / math.pi
