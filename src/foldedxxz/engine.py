"""Exact expectation values in the post-flip state.

The evolved state is ``sum_n a_n |n>`` with ``a_n = (-i)^n J_n(4 J t)``
over the impurity basis of a fixed background.  Each site's spin is a step
function of ``n`` (``Background.site_maps``), so a diagonal observable is
constant between the breakpoints of its support and its expectation value
is a sum of differences of the prefix sums ``sum_{m<n} |a_m|^2``.  The same
breakpoints label the Schmidt decomposition across a bond.  Generic Pauli
strings couple only basis states whose renderings differ inside the
string's support, which keeps the double sum local and exact.

On a background cut to an open chain (``Background.on_chain``) the
impurity hops on a finite segment of basis states instead, and the Bessel
table is replaced by that segment's amplitude table (see ``chain_segment``
and ``chain_amplitudes``).  Entry points that read the table accept such
backgrounds; the others refuse them with ``EngineError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .bessel import AmplitudeTable, BesselWeights, bessel_weights, position_cdf
from .lattice import DOWN, UP, Background, GuardError, SpinWindow

GUARD_MARGIN = 4  # particles beyond the Bessel cutoff kept on each side


class RuleDomainError(Exception):
    """Matrix-element shortcut rules are not stated for this site."""


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class DiagonalObservable:
    """Operator diagonal in the impurity basis.

    ``evaluator`` maps the rendered spins on ``support`` (a SpinWindow) to
    the eigenvalue of the observable in that basis state.  It is called once
    per run of impurity indices over which the rendering of the support is
    constant, not once per basis state, so it must be a pure function of the
    window.
    """

    evaluator: Callable[[SpinWindow], float]
    support: tuple[int, int]

    def __post_init__(self):
        lo, hi = self.support
        if lo > hi:
            raise ValueError("empty support")


def sigma_z_observable(site: int) -> DiagonalObservable:
    return DiagonalObservable(lambda w: float(w.spin_at(site)), (site, site))


def down_projector_observable(site: int) -> DiagonalObservable:
    return DiagonalObservable(lambda w: 0.5 * (1.0 - w.spin_at(site)), (site, site))


@dataclass(frozen=True)
class PauliString:
    """Product of single-site Pauli factors on distinct sites."""

    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        sites = [s for s, _ in self.factors]
        if len(set(sites)) != len(sites):
            raise ValueError("factors must act on distinct sites")
        if any(ax not in ("x", "y", "z") for _, ax in self.factors):
            raise ValueError("axes must be 'x', 'y' or 'z'")
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.factors)

    @property
    def support(self) -> tuple[int, int]:
        if not self.factors:
            return (0, 0)
        return (self.factors[0][0], self.factors[-1][0])

    @property
    def span(self) -> int:
        lo, hi = self.support
        return hi - lo

    @property
    def is_diagonal(self) -> bool:
        return all(ax == "z" for _, ax in self.factors)


def pauli(*pairs: tuple[int, str]) -> PauliString:
    return PauliString(tuple(pairs))


def current_operator(site: int) -> list[tuple[complex, PauliString]]:
    """Bond current entering ``site``: J * D_{site-2,site} (1 - sigma^z_{site-1}) / 2.

    The time derivative of the on-site magnetisation is
    ``current(site) - current(site + 2)``.
    """
    a, m, b = site - 2, site - 1, site
    return [
        (0.5, pauli((a, "x"), (b, "y"))),
        (-0.5, pauli((a, "y"), (b, "x"))),
        (-0.5, pauli((a, "x"), (m, "z"), (b, "y"))),
        (0.5, pauli((a, "y"), (m, "z"), (b, "x"))),
    ]


@dataclass(frozen=True)
class Profile:
    """Indexed table of expectation values with metadata."""

    observable: str
    time: float
    indices: np.ndarray
    values: np.ndarray
    mode: str = "exact"

    def __post_init__(self):
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must align")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,value\n")
            for i, v in zip(self.indices, self.values):
                fh.write(f"{int(i)},{v:.17g}\n")

    def to_json(self, path) -> None:
        import json

        payload = {
            "observable": self.observable,
            "time": self.time,
            "mode": self.mode,
            "rows": [[int(i), float(v)] for i, v in zip(self.indices, self.values)],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")


# -- open chains ------------------------------------------------------------
#
# On the open chain of sites lo..hi the folded term moves the impurity only
# while its down run stays inside the chain.  The basis states reachable
# from n = 0 then form one open hopping segment n_min..n_max with amplitude
# 2J between neighbours.  The segment is derived from the folded term acting
# on the rendered rows, and any other structure is refused.  On a uniform
# segment of L states the propagator follows from G(m) = (-i)^m J_m(4Jt) by
# the method of images, with walls at n_min - 1 and n_max + 1:
#
#     a_n = sum_k [G(n + 2k(L+1)) - G(n - 2 n_min + 2 + 2k(L+1))].

HOPPING = 2.0  # folded-term amplitude 2J between neighbouring basis states


@dataclass(frozen=True)
class ChainSegment:
    """Hopping segment ``n_min..n_max`` of a chain background.

    ``background`` is extended far enough to render every row of the
    segment; ``hopping[k]`` is the derived amplitude between states
    ``n_min + k`` and ``n_min + k + 1``.
    """

    background: Background
    n_min: int
    n_max: int
    hopping: np.ndarray

    @property
    def length(self) -> int:
        return self.n_max - self.n_min + 1


@dataclass(frozen=True)
class ChainAmplitudes(AmplitudeTable):
    """Open-chain amplitudes ``(-i)^n values[n - n_lo]`` at one time.

    Read by the engine exactly like ``BesselWeights``; ``tail_bound``
    certifies ``|sum_n a_n^2 - 1|``.
    """

    n_lo: int
    n_hi: int
    values: np.ndarray
    tail_bound: float


def folded_hops(row: np.ndarray) -> dict[bytes, float]:
    """Rows reached from ``row`` by one folded term inside the chain, with amplitudes."""
    out: dict[bytes, float] = {}
    for l in np.flatnonzero((row[1:-1] == DOWN) & (row[:-2] != row[2:])):
        target = row.copy()
        target[l], target[l + 2] = row[l + 2], row[l]
        key = target.tobytes()
        out[key] = out.get(key, 0.0) + HOPPING
    return out


def _path_segment(keys: list, hops: list[dict], k0: int) -> tuple[int, int, np.ndarray]:
    """Open path through ``keys`` from ``k0`` along ``hops``: (k_min, k_max, hopping).

    ``hops[k]`` maps the keys reached from ``keys[k]`` to their amplitudes.
    The path must be closed (no hop leaves it), unbranched (each state hops
    only to its neighbours in ``keys``) and uniform (every amplitude is
    ``HOPPING``); otherwise ``EngineError``.
    """
    k_max = k0
    while k_max + 1 < len(keys) and keys[k_max + 1] in hops[k_max]:
        k_max += 1
    k_min = k0
    while k_min > 0 and keys[k_min - 1] in hops[k_min]:
        k_min -= 1
    if len(set(keys[k_min : k_max + 1])) != k_max - k_min + 1:
        raise EngineError("chain segment revisits a basis state")
    for k in range(k_min, k_max + 1):
        neighbours = {keys[m] for m in (k - 1, k + 1) if k_min <= m <= k_max}
        if set(hops[k]) != neighbours:
            raise EngineError(
                f"state {k - k0} of the chain segment branches or leaves the segment"
            )
    hopping = np.array([hops[k][keys[k + 1]] for k in range(k_min, k_max)])
    if np.any(hopping != HOPPING) or any(
        hops[k + 1][keys[k]] != HOPPING for k in range(k_min, k_max)
    ):
        raise EngineError(f"non-uniform hopping {hopping.tolist()} on the chain segment")
    return k_min, k_max, hopping


@lru_cache(maxsize=16)
def chain_segment(bg: Background) -> ChainSegment:
    """Hopping segment of the impurity on ``bg``'s open chain.

    Every basis state below (above) the particles that can show on the
    chain renders there like the first (last) of them, so the rows
    ``n_first..n_last`` hold every chain rendering.  Particle 0 shows on
    every chain (at site -1 or 0 once the impurity has passed it), so
    ``n_first < 0 <= n_last``.
    """
    if bg.chain is None:
        raise EngineError("background has no chain")
    lo, hi = bg.chain
    bgx = bg.extended_to_sites(lo, hi)
    j_first, n_last = bgx.particles_seen(lo, hi)
    n_first = j_first - 1
    bgx = bgx.extended_to_particles(n_first - 1, n_last + 1)
    rows = bgx.render_block(n_first, n_last, lo, hi)
    keys = [row.tobytes() for row in rows]
    hops = [folded_hops(row) for row in rows]
    k_min, k_max, hopping = _path_segment(keys, hops, -n_first)
    return ChainSegment(bgx, n_first + k_min, n_first + k_max, hopping)


def chain_amplitudes(seg: ChainSegment, t: float, tol: float = 1e-12) -> ChainAmplitudes:
    """Method-of-images amplitudes on the segment from the certified Bessel table."""
    w = bessel_weights(t, tol)
    n_min, n_max, size = seg.n_min, seg.n_max, seg.length
    period = 2 * (size + 1)
    mirror = 2 - 2 * n_min
    # (-i)^(k period) = (-1)^(k (L+1)) and (-i)^mirror = (-1)^(1 - n_min)
    mirror_sign = -1.0 if (1 - n_min) % 2 else 1.0
    values = np.zeros(size)
    reach = w.order_cutoff // period + 2
    for k in range(-reach, reach + 1):
        shift = k * period
        sign = -1.0 if k * (size + 1) % 2 else 1.0
        direct = w.j_array(n_min + shift, n_max + shift)
        image = w.j_array(n_min + mirror + shift, n_max + mirror + shift)
        values += sign * (direct - mirror_sign * image)
    deficit = abs(math.fsum(values * values) - 1.0)
    return ChainAmplitudes(n_min, n_max, values, deficit)


def require_infinite(bg: Background, what: str) -> None:
    """Refuse a chain background in an entry point that reads the Bessel table."""
    if bg.chain is not None:
        raise EngineError(f"{what} does not read the open-chain table of chain {bg.chain}")


# -- guarded background ----------------------------------------------------


def guarded_background(
    bg: Background, t: float, tol: float = 1e-12
) -> tuple[Background, AmplitudeTable]:
    """Weights for ``t`` plus a background wide enough for their cutoff.

    The engine's one light-cone guard: ``GUARD_MARGIN`` particles beyond
    the cutoff.  On a chain background the weights are the chain's
    amplitude table and the background renders its whole segment.
    """
    if bg.chain is not None:
        seg = chain_segment(bg)
        return seg.background, chain_amplitudes(seg, t, tol)
    w = bessel_weights(t, tol)
    need = w.order_cutoff + GUARD_MARGIN
    return bg.extended_to_particles(-need, need), w


def _cone_window(bg: Background, w: BesselWeights, pad: int = 2) -> tuple[int, int]:
    """Site range guaranteed to contain all n-dependence of the stored states."""
    n = w.order_cutoff
    lo = bg.site_of(-n - 2, 0) - pad
    hi = bg.site_of(n + 2, 0) + pad
    return lo, hi


# -- diagonal expectation values --------------------------------------------


def _breakpoints(j0: np.ndarray, j1: np.ndarray, n_lo: int, n_hi: int) -> np.ndarray:
    """Sorted impurity indices in (n_lo, n_hi] at which a site of the maps changes."""
    j = np.concatenate([j0, j1])
    return np.unique(j[(j > n_lo) & (j <= n_hi)])


def _diagonal_runs(
    obs: DiagonalObservable, bgx: Background, n_lo: int, n_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Runs of impurity indices with one rendering of ``obs.support``.

    Returns ``cuts`` (``n_lo = cuts[0] < ... < cuts[-1] = n_hi + 1``) and
    ``vals[k]``, the eigenvalue of ``obs`` for ``cuts[k] <= n < cuts[k + 1]``.
    """
    lo, hi = obs.support
    cuts = np.concatenate([[n_lo], _breakpoints(*bgx.site_maps(lo, hi), n_lo, n_hi), [n_hi + 1]])
    vals = np.array([obs.evaluator(bgx.render_window(int(n), lo, hi)) for n in cuts[:-1]])
    return cuts, vals


def expect_diagonal(obs: DiagonalObservable, t: float, bg: Background, tol: float = 1e-12) -> float:
    """sum_n |a_n|^2 <n|D|n>: each run's eigenvalue times the run's prefix-sum weight."""
    bgx, w = guarded_background(bg, t, tol)
    lo, hi = obs.support
    cuts, vals = _diagonal_runs(obs, bgx.extended_to_sites(lo, hi), w.n_lo, w.n_hi)
    return float(np.diff(w.weight_below(cuts)) @ vals)


def sigma_z_values(t: float, bg: Background, sites: Sequence[int], tol: float = 1e-12) -> np.ndarray:
    """<sigma^z_l>_t for each requested site.

    Site ``l`` is down exactly for ``j1(l) <= n < j0(l)``, so the value is
    the table's weight minus twice the weight of that range.
    """
    bgx, w = guarded_background(bg, t, tol)
    sites = np.asarray(sites, dtype=np.int64)
    lo, hi = int(sites.min()), int(sites.max())
    j0, j1 = bgx.extended_to_sites(lo, hi).site_maps(lo, hi)
    k = sites - lo
    return w.total - 2.0 * (w.weight_below(j0[k]) - w.weight_below(j1[k]))


def magnetisation_profile(
    t: float, bg: Background, sites: Sequence[int], tol: float = 1e-12
) -> Profile:
    sites = np.asarray(sites, dtype=np.int64)
    return Profile("sigma_z", t, sites, sigma_z_values(t, bg, sites, tol), "exact")


def p_down_down(ell: int, t: float, bg: Background, tol: float = 1e-12) -> float:
    """Probability of two adjacent down spins on the bond (ell, ell+1)."""
    return float(p_down_down_values(t, bg, [ell], tol)[0])


def p_down_down_values(
    t: float, bg: Background, bonds: Sequence[int], tol: float = 1e-12
) -> np.ndarray:
    """Probability of two adjacent down spins on each bond (l, l+1).

    Both sites are down exactly for ``max j1 <= n < min j0`` over the pair.
    """
    bgx, w = guarded_background(bg, t, tol)
    bonds = np.asarray(bonds, dtype=np.int64)
    lo, hi = int(bonds.min()), int(bonds.max()) + 1
    j0, j1 = bgx.extended_to_sites(lo, hi).site_maps(lo, hi)
    k = bonds - lo
    start = np.maximum(j1[k], j1[k + 1])
    stop = np.minimum(j0[k], j0[k + 1])
    return np.maximum(w.weight_below(stop) - w.weight_below(start), 0.0)


def p_down_down_profile(
    t: float, bg: Background, bonds: Sequence[int], tol: float = 1e-12
) -> Profile:
    bonds = np.asarray(bonds, dtype=np.int64)
    return Profile("p_down_down", t, bonds, p_down_down_values(t, bg, bonds, tol), "exact")


# -- matrix-element shortcut rules ------------------------------------------


@lru_cache(maxsize=16)
def _site_to_particle(bg: Background) -> dict:
    lookup = {bg.site_of(j, 0): j for j in range(bg.j_min, bg.j_max + 1)}
    if bg.chain is None:
        return lookup
    lo, hi = bg.chain
    return {site: j for site, j in lookup.items() if lo <= site <= hi}


def sigma_z_element_rule(n: int, ell: int, bg: Background) -> float:
    """<n|sigma^z_ell|n> from the initial three-spin pattern around ``ell``.

    Stated for ell > 0 (impurity initially to the left) and ell < -1; the
    two flip sites fall back to rendering via RuleDomainError.
    """
    if ell in (0, -1):
        raise RuleDomainError("rules are not stated for the flip macrosite")
    lookup = _site_to_particle(bg)
    if ell > 0:
        a, b, c = (int(bg.render(0, ell, ell + 2)[k]) for k in range(3))
        if a == UP and c == UP:
            j = lookup[ell]
            if b == UP:
                return 1.0 - 2.0 * ((n == j) + (n == j + 1))
            return 1.0 - 2.0 * (n == j)
        if (a, b, c) == (UP, UP, DOWN):
            j = lookup[ell]
            return 1.0 - 2.0 * (n >= j)
        if (a, b, c) == (DOWN, UP, UP):
            j = lookup[ell + 1]
            return 1.0 - 2.0 * (n <= j)
        if (a, b, c) == (DOWN, UP, DOWN):
            return -1.0
        raise RuleDomainError(f"unclassifiable pattern at site {ell}")
    a, b, c = (int(bg.render(0, ell - 2, ell)[k]) for k in range(3))
    if a == UP and c == UP:
        j = lookup[ell]
        if b == UP:
            return 1.0 - 2.0 * ((n == j - 1) + (n == j - 2))
        return 1.0 - 2.0 * (n == j - 1)
    if (a, b, c) == (UP, UP, DOWN):
        j = lookup[ell - 1]
        return 1.0 - 2.0 * (n >= j - 1)
    if (a, b, c) == (DOWN, UP, UP):
        j = lookup[ell]
        return 1.0 - 2.0 * (n < j)
    if (a, b, c) == (DOWN, UP, DOWN):
        return -1.0
    raise RuleDomainError(f"unclassifiable pattern at site {ell}")


def projector_pair_table(pattern: str, impurity_side: str) -> tuple[int, int]:
    """Down-projector eigenvalue pair on (l, l+1) for a four-spin pattern.

    ``pattern`` is the initial four-spin string at sites l..l+3 (over u/d)
    and ``impurity_side`` says where the impurity ends up relative to the
    site: 'right' for n - j(l) large positive, 'left' for large negative.
    The pattern shifts down by one macrosite once the impurity has passed.
    """
    table_right = {
        "uudu": (1, 0), "uuud": (0, 1), "uuuu": (0, 0), "uduu": (0, 0),
        "udud": (0, 1), "duuu": (0, 0), "duud": (0, 1), "dudu": (1, 0),
    }
    table_left = {
        "uudu": (0, 0), "uuud": (0, 0), "uuuu": (0, 0), "uduu": (0, 1),
        "udud": (0, 1), "duuu": (1, 0), "duud": (1, 0), "dudu": (1, 0),
    }
    table = table_right if impurity_side == "right" else table_left
    if pattern not in table:
        raise RuleDomainError(f"pattern {pattern} violates jamming")
    return table[pattern]


# -- generic Pauli strings ---------------------------------------------------


def _apply_string(row: np.ndarray, site_lo: int, factors) -> tuple[complex, np.ndarray]:
    """Apply the string to a rendered ket pattern; returns (coefficient, pattern)."""
    out = row.copy()
    coeff = 1.0 + 0.0j
    for site, ax in factors:
        k = site - site_lo
        s = out[k]
        if ax == "z":
            coeff *= float(s)
        elif ax == "x":
            out[k] = -s
        else:  # y
            coeff *= 1j * float(s)
            out[k] = -s
    return coeff, out


def expect_pauli_string(
    string: PauliString, t: float, bg: Background, tol: float = 1e-12
) -> complex:
    """<A>_t for a Pauli string via the exact double sum over basis states."""
    if not string.factors:
        return 1.0 + 0.0j
    if string.is_diagonal:
        sites = string.sites
        product = DiagonalObservable(lambda w: math.prod(w.spin_at(s) for s in sites), string.support)
        return complex(expect_diagonal(product, t, bg, tol))

    require_infinite(bg, "an off-diagonal Pauli string")
    bgx, w = guarded_background(bg, t, tol)
    ncut = w.order_cutoff
    slo, shi = string.support
    margin = 6
    bgx = bgx.extended_to_sites(slo - margin - 4, shi + margin + 4)
    # candidate impurity indices: a nonzero element needs both impurity down
    # blocks inside the string support, so only states whose block touches the
    # (slightly padded) support can contribute: particle n may sit at or left
    # of its right end, and particle n + 1 at or right of its left end
    j_first, j_last = bgx.particles_seen(slo - margin, shi + margin)
    n_lo, n_hi = max(j_first - 1, -ncut), min(j_last, ncut)
    if n_lo > n_hi:
        return 0.0 + 0.0j
    wlo = min(slo, bgx.site_of(n_lo, n_lo)) - margin
    whi = max(shi, bgx.site_of(n_hi + 1, n_hi)) + margin
    block = bgx.render_block(n_lo, n_hi, wlo, whi)
    # locality claim: a nonzero element keeps both impurity blocks within two
    # sites of the support; contributions from the pad zone are a bug
    in_core = [
        bgx.site_of(n, n) >= slo - 4 and bgx.site_of(n + 1, n) <= shi + 4
        for n in range(n_lo, n_hi + 1)
    ]
    amps = w.j_array(n_lo, n_hi)
    total = 0.0 + 0.0j
    phases = (1.0, 1j, -1.0, -1j)  # i^(n1 - n2)
    for k2 in range(len(block)):
        coeff, pattern = _apply_string(block[k2], wlo, string.factors)
        # x/y factors always change the pattern, so a state never matches itself
        for k1 in np.flatnonzero((block == pattern).all(axis=1)):
            if not (in_core[k1] and in_core[k2]):
                raise EngineError("off-diagonal locality margin violated")
            total += phases[(k1 - k2) % 4] * amps[k1] * amps[k2] * coeff
    return total


def expect_operator(
    terms: Iterable[tuple[complex, PauliString]], t: float, bg: Background, tol: float = 1e-12
) -> complex:
    return sum(c * expect_pauli_string(p, t, bg, tol) for c, p in terms)


def spin_current(ell: int, t: float, bg: Background, tol: float = 1e-12) -> float:
    """Magnetisation bond current entering site ``ell``; real by hermiticity."""
    val = expect_operator(current_operator(ell), t, bg, tol)
    if abs(val.imag) > 1e-9:
        raise EngineError(f"current expectation not real: {val}")
    return float(val.real)


def current_profile(t: float, bg: Background, sites: Sequence[int], tol: float = 1e-12) -> Profile:
    sites = np.asarray(sites, dtype=np.int64)
    vals = np.array([spin_current(int(s), t, bg, tol) for s in sites])
    return Profile("spin_current", t, sites, vals, "exact")


def sigma_z_time_derivative(ell: int, t: float, bg: Background, tol: float = 1e-12) -> float:
    """d<sigma^z_ell>/dt = 2 [current(ell) - current(ell + 2)].

    The commutator i[H, sigma^z] yields twice the bare D-terms
    ([sigma^z, sigma^x] = 2i sigma^y); verified against a finite-difference
    derivative of the exact profile.
    """
    return 2.0 * (spin_current(ell, t, bg, tol) - spin_current(ell + 2, t, bg, tol))


# -- two-time correlations ---------------------------------------------------


def two_time_diagonal(
    d1: DiagonalObservable,
    t1: float,
    d2: DiagonalObservable,
    t2: float,
    bg: Background,
    tol: float = 1e-12,
) -> float:
    """<D1(t1) D2(t2)> via the triple Bessel sum (t1 >= t2 >= 0)."""
    require_infinite(bg, "two_time_diagonal")
    if not t1 >= t2 >= 0:
        raise ValueError("require t1 >= t2 >= 0")
    w1 = bessel_weights(t1, tol)
    w2 = bessel_weights(t2, tol)
    w12 = bessel_weights(t1 - t2, tol)
    n1, n2 = w1.order_cutoff, w2.order_cutoff
    bgx, _ = guarded_background(bg, t1 if n1 >= n2 else t2, tol)
    bgx = bgx.extended_to_sites(
        min(d1.support[0], d2.support[0]), max(d1.support[1], d2.support[1])
    )

    def eigenvalues(obs, ncut):
        cuts, vals = _diagonal_runs(obs, bgx, -ncut, ncut)
        return np.repeat(vals, np.diff(cuts))

    a = w1.values * eigenvalues(d1, n1)
    b = w2.values * eigenvalues(d2, n2)
    m = np.arange(-n1, n1 + 1)[:, None]
    n = np.arange(-n2, n2 + 1)[None, :]
    kernel = w12.j_array(-n1 - n2, n1 + n2)[(m - n) + n1 + n2]
    return float(a @ kernel @ b)


# -- particle position statistics -------------------------------------------


@dataclass(frozen=True)
class PositionStatistics:
    particle: int
    time: float
    anchor: int  # state-independent macrosite c(j)
    prob_lower: float
    prob_upper: float
    mean: float
    variance: float


def position_statistics(j: int, t: float, bg: Background, tol: float = 1e-12) -> PositionStatistics:
    """Distribution of particle ``j``'s macrosite: c(j) or c(j) + 1."""
    require_infinite(bg, "position_statistics")
    w = bessel_weights(t, tol)
    c = bg.c(j)  # raises IndexOutOfRangeError when j is not stored
    f = position_cdf(float(j), w)
    return PositionStatistics(j, t, c, 1.0 - f, f, c + f, f - f * f)


def position_correlation(m: int, n: int, t: float, bg: Background, tol: float = 1e-12) -> float:
    """Connected correlation of the macrosites of particles m and n (>= 0)."""
    require_infinite(bg, "position_correlation")
    w = bessel_weights(t, tol)
    bg.c(m), bg.c(n)
    fm = position_cdf(float(m), w)
    fn = position_cdf(float(n), w)
    return (fn if m >= n else fm) - fm * fn


# -- bipartite entanglement ---------------------------------------------------


def schmidt_spectrum(cut: int, t: float, bg: Background, tol: float = 1e-12) -> np.ndarray:
    """Squared Schmidt values across the bond (cut, cut+1), descending.

    Within the table, particles enter or leave either side of the cut only
    across the cut, so two states render alike on one side iff no breakpoint
    of that side lies between them: breakpoints label the rows and columns
    of the amplitude matrix.  With ``r`` the first breakpoint right of the
    cut and ``l`` the last one left of it, the states below ``r - 1`` share
    one column and own their rows: they act as one row of norm
    ``sqrt(sum |a_n|^2)``.  The states above ``l`` mirror this as one column,
    so only the states in between enter one by one.  On a chain background
    the bond must lie inside the chain.
    """
    bgx, w = guarded_background(bg, t, tol)
    if bg.chain is not None:
        lo, hi = bg.chain
        if not lo <= cut < hi:
            raise GuardError(f"bond ({cut}, {cut + 1}) outside the chain {bg.chain}")
    else:
        lo, hi = _cone_window(bgx, w)
        if not lo <= cut < hi:
            # outside the cone every state renders identically around the cut
            return np.array([1.0])
    j0, j1 = bgx.site_maps(lo, hi)
    split = cut - lo + 1
    left = _breakpoints(j0[:split], j1[:split], w.n_lo, w.n_hi)
    right = _breakpoints(j0[split:], j1[split:], w.n_lo, w.n_hi)
    if not (left.size and right.size):
        # one side renders alike in every state
        return np.array([w.total])
    start, stop = sorted((int(right[0]) - 1, int(left[-1])))
    ns = np.arange(start, stop + 1)
    rows = np.searchsorted(left, ns, side="right") - np.searchsorted(left, start, side="right")
    cols = np.searchsorted(right, ns, side="right") - np.searchsorted(right, start, side="right")
    amps = np.zeros((rows[-1] + 2, cols[-1] + 2), dtype=complex)
    amps[rows, cols] = w.amplitudes()[start - w.n_lo : stop - w.n_lo + 1]
    below, upto = w.weight_below([start, stop + 1])
    amps[-1, 0] = math.sqrt(below)
    amps[-2, -1] = math.sqrt(w.total - upto)
    s = np.linalg.svd(amps, compute_uv=False)
    return s * s


def spectrum_entropy(p: np.ndarray, base: float = 2.0) -> float:
    """Entropy of a normalised Schmidt spectrum ``p``, in bits by default."""
    p = p[p > 1e-300]
    p = p / p.sum()
    return float(-(p * np.log(p)).sum() / math.log(base))


def bipartite_entropy(
    cut: int, t: float, bg: Background, base: float = 2.0, tol: float = 1e-12
) -> float:
    """Entanglement entropy across the bond (cut, cut+1), in bits by default."""
    return spectrum_entropy(schmidt_spectrum(cut, t, bg, tol), base)


SCHMIDT_THRESHOLD = 1e-12  # squared Schmidt values counted by schmidt_count


def schmidt_count(cut: int, t: float, bg: Background, threshold: float = SCHMIDT_THRESHOLD) -> int:
    p = schmidt_spectrum(cut, t, bg)
    return int(np.sum(p > threshold))
