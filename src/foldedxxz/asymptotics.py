"""Late-time closed forms for magnetisation profiles and the jamming envelope.

The long-time value of ``<sigma^z_l>`` depends only on the initial
three-spin pattern around ``l`` (read away from the impurity) and on the
coarse-grained particle coordinate ``x(l)``:

    up   .  up   ->  +1
    up  up  down ->  +(2/pi) arcsin(x(l) / 4 J t)
    down up  up  ->  -(2/pi) arcsin(x(l) / 4 J t)
    down up down ->  -1

with the pattern read left-to-right for sites right of the impurity and
mirrored on the left.  Macrosite charge and staggered densities follow by
averaging the two site values of a macrosite; in particular the staggered
density of a ``down-up`` macrosite followed by ``up-down`` evaluates to
``(2/pi) arcsin(x / 4 J t)`` (the same light-cone scale as every other
case).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
import scipy.optimize

from .engine import require_infinite
from .lattice import DOWN, UP, Background, x_of_ell


class PatternUnclassifiableError(Exception):
    """Site sits inside the initial impurity neighbourhood."""


class OutsideConeError(Exception):
    pass


def _clamped_arcsin(ratio: float) -> float:
    return math.asin(min(1.0, max(-1.0, ratio)))


def asym_sigma_z(
    ell: int,
    t: float,
    bg: Background,
    x_fn: Callable[[int], float] | None = None,
) -> float:
    """Late-time ``<sigma^z_ell>`` from the initial three-spin pattern.

    ``x_fn`` overrides the coarse-grained coordinate (defaults to the exact
    discrete ``x_of_ell``); the arcsin argument is clamped outside the
    light cone.
    """
    require_infinite(bg, "the asymptotic rules")
    if ell in (-1, 0):
        raise PatternUnclassifiableError("flip macrosite has no asymptotic rule")
    bg = bg.extended_to_sites(ell - 2, ell + 2)
    # the matching table is the same on both sides when the pattern is read
    # left-to-right; only the probed end differs
    if ell > 0:
        a, b, c = (int(s) for s in bg.render(0, ell, ell + 2))
    else:
        a, b, c = (int(s) for s in bg.render(0, ell - 2, ell))
    x = x_fn(ell) if x_fn is not None else x_of_ell(bg, ell)
    g = 2.0 / math.pi * _clamped_arcsin(x / (4.0 * t)) if t > 0 else 0.0
    if a == UP and c == UP:
        return 1.0
    if (a, b, c) == (UP, UP, DOWN):
        return g
    if (a, b, c) == (DOWN, UP, UP):
        return -g
    if (a, b, c) == (DOWN, UP, DOWN):
        return -1.0
    raise PatternUnclassifiableError(f"site {ell} touches the impurity")


def asym_sigma_z_profile(
    t: float,
    bg: Background,
    sites: Sequence[int],
    x_fn: Callable[[int], float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(classifiable sites, values) over the requested range."""
    if len(sites):
        bg = bg.extended_to_sites(int(np.min(sites)) - 2, int(np.max(sites)) + 2)
    out_sites, out_vals = [], []
    for ell in sites:
        try:
            out_vals.append(asym_sigma_z(int(ell), t, bg, x_fn))
            out_sites.append(int(ell))
        except PatternUnclassifiableError:
            continue
    return np.asarray(out_sites), np.asarray(out_vals)


def asym_macrosite(
    lp: int,
    t: float,
    bg: Background,
    which: str,
    x_fn: Callable[[int], float] | None = None,
) -> float:
    """Late-time macrosite density: charge ('plus') or staggered ('minus').

    plus  = (sigma^z_{2lp} + sigma^z_{2lp-1}) / 2,
    minus = (sigma^z_{2lp} - sigma^z_{2lp-1}) / 2,
    evaluated by combining the site rules; the case values reproduce the
    arccos/arcsin table obtained from the two-macrosite initial pattern.
    """
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    odd = asym_sigma_z(2 * lp - 1, t, bg, x_fn)
    even = asym_sigma_z(2 * lp, t, bg, x_fn)
    return 0.5 * (even + odd) if which == "plus" else 0.5 * (even - odd)


def lqjs_envelope(zeta: float, amplitude: float, v_edge: float) -> float:
    """Scale-invariant envelope a / sqrt(1 - (zeta / v)^2) of J t * P_dd."""
    if abs(zeta) >= abs(v_edge):
        raise OutsideConeError(f"ray {zeta} outside the cone |v| = {abs(v_edge)}")
    return amplitude / math.sqrt(1.0 - (zeta / v_edge) ** 2)


def block_maxima(rays: np.ndarray, values: np.ndarray, bin_width: float = 0.25):
    """Upper envelope estimate: maximum of ``values`` per ray bin."""
    rays = np.asarray(rays, dtype=float)
    values = np.asarray(values, dtype=float)
    bins = np.floor(rays / bin_width).astype(int)
    out_r, out_v = [], []
    for b in np.unique(bins):
        mask = bins == b
        k = np.argmax(values[mask])
        out_r.append(rays[mask][k])
        out_v.append(values[mask][k])
    return np.asarray(out_r), np.asarray(out_v)


def fit_lqjs_envelope(
    rays: np.ndarray,
    values: np.ndarray,
    bin_width: float = 0.25,
    a0: float = 0.16,
    v0: float = 6.0,
) -> tuple[float, float]:
    """Least-squares (amplitude, edge velocity) of the envelope conjecture.

    Fits the block maxima of ``values`` over ray bins, which tracks the
    upper envelope of the oscillating rescaled jamming profile.
    """
    br, bv = block_maxima(rays, values, bin_width)

    def model(z, a, v):
        return a / np.sqrt(np.clip(1.0 - (z / v) ** 2, 1e-9, None))

    popt, _ = scipy.optimize.curve_fit(
        model,
        br,
        bv,
        p0=(a0, v0),
        bounds=((1e-3, np.max(np.abs(br)) + 0.05), (2.0, 16.0)),
        maxfev=20000,
    )
    return float(popt[0]), float(popt[1])


def cone_edge_velocity(mean_sigma_z: float, coupling: float = 1.0) -> float:
    """Edge velocity 8 J / (1 + 2 <S^z>_0 / L) from the initial filling.

    ``mean_sigma_z`` is the per-site average of ``sigma^z`` in the initial
    state, which equals ``2 <S^z>_0 / L``.
    """
    return 8.0 * coupling / (1.0 + mean_sigma_z)
