"""Closed forms for the weakly interacting protocol and two-spin entanglement.

The initial state is a Neel background (spins up on even sites) with a
single domain of ``length`` extra up spins on macrosites
``m_start .. m_start + length - 1``, flipped at site 0.  Every one- and
two-point function of the evolved state reduces to a finite combination
of Bessel weights; the catalog below covers all site pairs, with the
generic engine available as a fallback and cross-check.

Two-spin entanglement uses Wootters' concurrence

    C = max(0, l1 - l2 - l3 - l4),

where ``l_i`` are the square roots of the eigenvalues of
``rho (sy x sy) rho* (sy x sy)`` in decreasing order, and the
entanglement of formation ``E = h((1 + sqrt(1 - C^2)) / 2)`` with the
binary entropy ``h`` in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import BesselWeights, bessel_weights, position_cdf
from .engine import expect_pauli_string, pauli
from .lattice import Background, weak_flip_background

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_ID = np.eye(2)
_PAULI = {"i": _ID, "x": _SX, "y": _SY, "z": _SZ}

# basis order of two-spin density matrices: uu, ud, du, dd
UU, UD, DU, DD = 0, 1, 2, 3


class PairNotInCatalog(Exception):
    """Site pair or axis combination not covered by the closed-form catalog."""


class NotADensityMatrix(Exception):
    pass


@dataclass(frozen=True)
class WeakConfig:
    """Domain start macrosite, domain length, and evolution time."""

    m_start: int
    length: int
    time: float
    tol: float = 1e-12

    def __post_init__(self):
        if self.m_start <= 0:
            raise ValueError("domain must start at a positive macrosite")
        if self.length < 1:
            raise ValueError("domain length must be at least one")
        if self.time < 0:
            raise ValueError("time must be non-negative")

    @property
    def weights(self) -> BesselWeights:
        return bessel_weights(self.time, self.tol)


def config_background(cfg: WeakConfig) -> Background:
    extent = cfg.weights.order_cutoff + 8 + cfg.m_start + 2 * cfg.length
    return weak_flip_background(cfg.m_start, cfg.length, extent)


def _f(x: int, cfg: WeakConfig) -> float:
    return position_cdf(float(x), cfg.weights)


def _j2(n: int, cfg: WeakConfig) -> float:
    v = cfg.weights.j(n)
    return v * v


def _jj(n1: int, n2: int, cfg: WeakConfig) -> float:
    return cfg.weights.j(n1) * cfg.weights.j(n2)


def weak_magnetisation(site: int, cfg: WeakConfig) -> float:
    """<sigma^z_site> from the piecewise Bessel formulas (odd/even site)."""
    m, M = cfg.m_start, cfg.length
    if site % 2 != 0:  # odd site 2 l' - 1
        lp = (site + 1) // 2
        if lp == m + M - 1:
            return 2.0 * _f(m + 2 * M - 2, cfg) - 1.0
        if lp == m - 1:
            return 1.0 - 2.0 * _f(m, cfg)
        if m <= lp <= m + M - 2:
            return 1.0 - 2.0 * _j2(m - 2 * lp - 1, cfg) - 2.0 * _j2(m - 2 * lp, cfg)
        return -1.0
    lp = site // 2
    if lp < m - 1:
        return 1.0 - 2.0 * _j2(lp, cfg)
    if lp > m + M - 2:
        return 1.0 - 2.0 * _j2(lp + M, cfg)
    return 1.0 - 2.0 * _j2(m - 2 * lp - 2, cfg) - 2.0 * _j2(m - 2 * lp - 1, cfg)


def weak_p_down_down(ell: int, cfg: WeakConfig) -> float:
    """Down-down probability on bond (ell, ell+1): a single squared weight."""
    m, M = cfg.m_start, cfg.length
    if ell // 2 < m - 1:
        return _j2(-(-ell // 2), cfg)  # ceil(ell / 2)
    if ell // 2 < m + M - 2:
        return _j2(ell - m + 2, cfg)
    return _j2(-(-ell // 2) + M, cfg)


def special_trajectories(cfg: WeakConfig) -> tuple[float, float]:
    """Late-time magnetisation at the two special sites 2m-3 and 2m+2M-3."""
    m, M = cfg.m_start, cfg.length
    lo = -2.0 / math.pi * math.asin(min(1.0, m / (4.0 * cfg.time))) if cfg.time > 0 else -1.0
    hi_arg = (m + 2.0 * (M - 1)) / (4.0 * cfg.time) if cfg.time > 0 else 2.0
    hi = 2.0 / math.pi * math.asin(min(1.0, hi_arg))
    return lo, hi


# -- two-point catalog ------------------------------------------------------


def _theta(cond: bool) -> float:
    return 1.0 if cond else 0.0


def _delta(a: int, b: int) -> float:
    return 1.0 if a == b else 0.0


def _xy_even_even(alpha: int, beta: int, lp: int, d: int, cfg: WeakConfig) -> float:
    """<sigma^alpha_{2(lp-d)} sigma^beta_{2 lp}> for alpha, beta in {1, 2}."""
    m, M = cfg.m_start, cfg.length
    pref = 2.0 * math.cos(math.pi / 2.0 * (beta - alpha + d))
    if pref == 0.0 or abs(pref) < 1e-15:
        return 0.0
    acc = _theta(lp < m) * _jj(lp, lp - d, cfg)
    acc += _theta(lp >= m + M + d - 2) * _jj(lp + M, lp + M - d, cfg)
    acc += _delta(d, 1) * _theta(m <= lp <= m + M - 2) * _jj(2 * lp - m + 1, 2 * lp - m, cfg)
    return pref * acc


def _xy_odd_odd(alpha: int, beta: int, lp: int, d: int, cfg: WeakConfig) -> float:
    """<sigma^alpha_{2(lp-d)-1} sigma^beta_{2 lp - 1}>."""
    m, M = cfg.m_start, cfg.length
    if alpha == beta:
        return 0.0
    # beta = 3 - alpha: nonzero only for adjacent macrosites inside the domain
    return (
        2.0
        * (-1.0) ** beta
        * _delta(d, 1)
        * _theta(m <= lp <= m + M - 1)
        * _jj(m - 2 * lp + 1, m - 2 * lp, cfg)
    )


def odd_site_sign(lp: int, n: int, m: int, length: int) -> int:
    """Spin at odd site ``2 lp - 1`` in the class-``n`` basis state.

    The basis states fall into four classes: the impurity sits on macrosite
    ``n`` (``n < m``), on ``n - M`` (``n >= m + 2M - 1``), or inside the
    domain region, where exactly one of the macrosites ``m-1 .. m+M-1``
    loses its odd spin.
    """
    if n < m:
        return 1 if m <= lp <= m + length - 1 else -1
    if n >= m + 2 * length - 1:
        return 1 if m - 1 <= lp <= m + length - 2 else -1
    excl = m + (n - m) // 2
    return 1 if (m - 1 <= lp <= m + length - 1 and lp != excl) else -1


def even_down_macro(n: int, m: int, length: int) -> int:
    """The single macrosite whose even site is down in the class-``n`` state."""
    if n < m:
        return n
    if n >= m + 2 * length - 1:
        return n - length
    if (n - m) % 2 == 0:
        return m + (n - m) // 2 - 1
    return m + (n - m - 1) // 2


def _zz_odd_odd(lp: int, d: int, cfg: WeakConfig) -> float:
    """<sigma^z_{2(lp-d)-1} sigma^z_{2 lp - 1}> from the class decomposition.

    (The printed branch table for this correlator is inconsistent already
    at t = 0; the class-resolved form below is exact.)
    """
    m, M = cfg.m_start, cfg.length
    w = cfg.weights
    ns = w.orders
    lp1, lp2 = lp - d, lp
    s1 = np.array([odd_site_sign(lp1, int(n), m, M) for n in ns])
    s2 = np.array([odd_site_sign(lp2, int(n), m, M) for n in ns])
    return float(np.dot(w.squares(), s1 * s2))


def _zz_even_even(lp: int, d: int, cfg: WeakConfig) -> float:
    """<sigma^z_{2(lp-d)} sigma^z_{2 lp}>."""
    m, M = cfg.m_start, cfg.length
    v = 1.0
    v -= 2.0 * _theta(lp - d < m) * _j2(lp - d, cfg)
    v -= 2.0 * _theta(lp < m) * _j2(lp, cfg)
    v -= 2.0 * _theta(lp - d >= m + M - 2) * _j2(lp + M - d, cfg)
    v -= 2.0 * _theta(lp >= m + M - 2) * _j2(lp + M, cfg)
    v -= 2.0 * _theta(m - 1 <= lp - d < m + M - 2) * _j2(m - 2 * lp + 2 * d - 2, cfg)
    v -= 2.0 * _theta(m - 1 <= lp < m + M - 2) * _j2(m - 2 * lp - 2, cfg)
    v -= 2.0 * _theta(m <= lp - d < m + M - 1) * _j2(m - 2 * lp + 2 * d - 1, cfg)
    v -= 2.0 * _theta(m <= lp < m + M - 1) * _j2(m - 2 * lp - 1, cfg)
    return v


def _zz_even_odd(ap: int, lp: int, cfg: WeakConfig) -> float:
    """<sigma^z_{2 ap} sigma^z_{2 lp - 1}> for any even/odd site pair."""
    m, M = cfg.m_start, cfg.length
    f_hi = _f(m + 2 * M - 2, cfg)
    f_lo = _f(m, cfg)
    v = -1.0
    v += 2.0 * _theta(ap < m) * _j2(ap, cfg)
    v += 2.0 * _theta(ap >= m + M - 2) * _j2(ap + M, cfg)
    v += 2.0 * _theta(m - 1 <= ap <= m + M - 3) * _j2(m - 2 * ap - 2, cfg)
    v += 2.0 * _theta(m <= ap <= m + M - 2) * _j2(m - 2 * ap - 1, cfg)
    v += 2.0 * _delta(lp, m - 1) * (
        1.0 - f_lo - 2.0 * _theta(ap >= m + M - 2) * _j2(ap + M, cfg)
    )
    v += 2.0 * _delta(lp, m + M - 1) * (
        f_hi - 2.0 * _theta(ap < m) * _j2(ap, cfg)
    )
    v += 2.0 * _theta(m <= lp <= m + M - 2) * (
        1.0
        - _j2(m - 2 * lp, cfg)
        - _j2(m - 2 * lp - 1, cfg)
        - 2.0 * _theta(ap < m) * _j2(ap, cfg)
        - 2.0 * _theta(ap >= m + M - 2) * _j2(ap + M, cfg)
        + 2.0 * _delta(lp, ap + 1) * _j2(m - 2 * lp, cfg)
        + 2.0 * _delta(ap, lp) * _j2(m - 2 * ap - 1, cfg)
    )
    v -= 4.0 * _theta(m - 1 <= lp <= m + M - 1) * (
        _theta(m - 1 <= ap <= m + M - 3) * _j2(m - 2 * ap - 2, cfg)
        + _theta(m <= ap <= m + M - 2) * _j2(m - 2 * ap - 1, cfg)
    )
    return v


_AXIS_NUM = {"x": 1, "y": 2, "z": 3}


def two_point(axis_a: str, axis_b: str, site_a: int, site_b: int, cfg: WeakConfig) -> float:
    """Catalog value of <sigma^axis_a_{site_a} sigma^axis_b_{site_b}>."""
    if site_a == site_b:
        raise PairNotInCatalog("coincident sites")
    if site_a > site_b:  # operators on distinct sites commute
        axis_a, axis_b, site_a, site_b = axis_b, axis_a, site_b, site_a
    a, b = _AXIS_NUM[axis_a], _AXIS_NUM[axis_b]
    pa, pb = site_a % 2 == 0, site_b % 2 == 0
    if a < 3 and b < 3:
        if pa != pb:
            return 0.0  # mixed-parity transverse correlators vanish
        if pa:
            lp = site_b // 2
            d = (site_b - site_a) // 2
            return _xy_even_even(a, b, lp, d, cfg)
        lp = (site_b + 1) // 2
        d = (site_b - site_a) // 2
        return _xy_odd_odd(a, b, lp, d, cfg)
    if a == 3 and b == 3:
        if pa and pb:
            return _zz_even_even(site_b // 2, (site_b - site_a) // 2, cfg)
        if not pa and not pb:
            return _zz_odd_odd((site_b + 1) // 2, (site_b - site_a) // 2, cfg)
        if pa:
            return _zz_even_odd(site_a // 2, (site_b + 1) // 2, cfg)
        return _zz_even_odd(site_b // 2, (site_a + 1) // 2, cfg)
    return 0.0  # single transverse factor: forbidden by spin-flip parity


def two_point_engine(axis_a: str, axis_b: str, site_a: int, site_b: int, cfg: WeakConfig) -> float:
    """Generic-engine evaluation of the same correlator (cross-check path)."""
    bg = config_background(cfg)
    val = expect_pauli_string(pauli((site_a, axis_a), (site_b, axis_b)), cfg.time, bg, cfg.tol)
    if abs(val.imag) > 1e-9:
        raise ArithmeticError(f"correlator not real: {val}")
    return float(val.real)


# -- two-spin density matrices ----------------------------------------------


@dataclass(frozen=True)
class TwoSpinDensityMatrix:
    sites: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (4, 4):
            raise NotADensityMatrix("matrix must be 4x4")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise NotADensityMatrix(f"trace {np.trace(m)}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise NotADensityMatrix("not Hermitian")
        if np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() < -1e-10:
            raise NotADensityMatrix("negative eigenvalue")


def _kron(a: str, b: str) -> np.ndarray:
    return np.kron(_PAULI[a], _PAULI[b])


def assemble_rho(
    sites: tuple[int, int], cfg: WeakConfig, use_engine_fallback: bool = False
) -> TwoSpinDensityMatrix:
    """Two-spin reduced density matrix from one- and two-point functions.

    Spin-flip parity kills every correlator with an odd number of
    transverse factors, so only z one-point functions and the xx/yy/xy/yx
    and zz two-point functions enter.
    """
    i, j = sites
    corr = {("i", "i"): 1.0}
    corr[("z", "i")] = weak_magnetisation(i, cfg)
    corr[("i", "z")] = weak_magnetisation(j, cfg)
    getter = two_point_engine if use_engine_fallback else two_point
    for aa, bb in (("z", "z"), ("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")):
        corr[(aa, bb)] = getter(aa, bb, i, j, cfg)
    rho = np.zeros((4, 4), dtype=complex)
    for (aa, bb), val in corr.items():
        rho += val * _kron(aa, bb)
    rho /= 4.0
    rho = 0.5 * (rho + rho.conj().T)
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-10:
        raise NotADensityMatrix(f"negative weight {eigs.min():.3e} at sites {sites}")
    return TwoSpinDensityMatrix((i, j), rho)


def concurrence(rho: TwoSpinDensityMatrix | np.ndarray) -> float:
    """Wootters concurrence via the Hermitian square-root spectrum."""
    m = rho.matrix if isinstance(rho, TwoSpinDensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise NotADensityMatrix("need a 4x4 matrix")
    if abs(np.trace(m) - 1.0) > 1e-8 or np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise NotADensityMatrix("not a two-spin density matrix")
    yy = _kron("y", "y")
    tilde = yy @ m.conj() @ yy
    evals, evecs = np.linalg.eigh(m)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = root @ tilde @ root
    inner = 0.5 * (inner + inner.conj().T)
    lams = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c: float) -> float:
    c = min(1.0, max(0.0, c))
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


def eof(rho: TwoSpinDensityMatrix | np.ndarray) -> float:
    """Entanglement of formation in bits."""
    return eof_from_concurrence(concurrence(rho))


def entanglement_map(
    cfg: WeakConfig, sites, rescale: bool = False, use_engine_fallback: bool = False
) -> np.ndarray:
    """Symmetric matrix of pairwise entanglement of formation.

    With ``rescale`` the values are multiplied by ``(J t)^2 / log2(J t)``
    (the inverse of their late-time decay) for display purposes.
    """
    sites = [int(s) for s in sites]
    n = len(sites)
    out = np.zeros((n, n))
    factor = 1.0
    if rescale and cfg.time > 1.0:
        factor = cfg.time**2 / math.log2(cfg.time)
    for ii in range(n):
        for jj in range(ii + 1, n):
            rho = assemble_rho((sites[ii], sites[jj]), cfg, use_engine_fallback)
            val = eof(rho) * factor
            out[ii, jj] = val
            out[jj, ii] = val
    return out
