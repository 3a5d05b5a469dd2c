"""Jammed backgrounds, the spin-flip protocol, and impurity-state rendering.

Conventions
-----------
Sites are integers; a spin up at site ``l`` is a particle of species
``b = 2*ceil(l/2) - l`` (0 on even sites, 1 on odd sites) living at
macrosite ``l' = ceil(l/2)``, i.e. macrosite ``l'`` covers the site pair
``(2l'-1, 2l')``.  A jammed state has no two adjacent down spins; its
species sequence ``b_j`` fixes all positions through the recurrence
``l'_{j+1} = l'_j + 1 - b_j (1 - b_{j+1})``.

Flipping a spin up that sits next to a down spin removes one particle and
creates the "impurity": two or three consecutive down spins.  Site labels
are always re-anchored so the down pair created by the flip occupies
macrosite 0 (sites -1 and 0).  Particles keep their species sequence
``b^(0)`` (the flipped one removed, indices closed up so that ``j = 0`` is
the first particle left of the impurity).  The basis state with the
impurity between particles ``n`` and ``n+1`` has particle ``j`` at
macrosite ``c(j) + theta(j > n)``, where ``c(j)`` is the state-independent
part assembled from partial sums of ``b_j (1 - b_{j+1})``.

Two flip conventions arise depending on whether the down spin adjacent to
the flipped one sat to its left (flipped spin relabelled to even site 0,
recorded as ``"left"``) or to its right (flipped spin at odd site -1,
``"right"``).  Both are supported and recorded.

Every ``Background`` is built from one format: the sorted integer array
of up-spin sites in the state ``n = 0``.  Each particle takes the species
of its site, and the recurrence must reproduce every site, which is the
full jamming check.  Parsing a spin window and extending a background by
repeating the up sites of an edge tile both end in that check.
The presets parse a fixed core window around the flip and, like every
other background, grow only through ``extended_to_particles``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

UP = 1
DOWN = -1

_NO_J0 = np.int64(2**40)   # sentinel: "never occupied from the left branch"
_NO_J1 = np.int64(-(2**40))


class LatticeError(Exception):
    pass


class NotJammedError(LatticeError):
    """Window violates jamming away from the declared impurity."""


class FlipIneffectiveError(LatticeError):
    """Flipped spin has no adjacent down spin, so the state stays jammed."""


class IndexOutOfRangeError(LatticeError):
    """Requested particle index lies outside the stored background."""


class GuardError(LatticeError):
    """Requested window or particle range exceeds the light-cone guard."""


@dataclass(frozen=True)
class SpinWindow:
    """Contiguous block of spins; ``spins[k]`` lives at site ``first_site + k``."""

    first_site: int
    spins: tuple[int, ...]

    def __post_init__(self):
        if len(self.spins) < 1:
            raise ValueError("window must contain at least one site")
        if not set(self.spins) <= {UP, DOWN}:
            raise ValueError("spins must be UP (+1) or DOWN (-1)")

    @classmethod
    def from_string(cls, text: str, first_site: int = 0) -> "SpinWindow":
        table = {"u": UP, "d": DOWN, "1": UP, "0": DOWN}
        try:
            spins = tuple(table[ch] for ch in text.lower())
        except KeyError as exc:
            raise ValueError(f"unknown spin character {exc}") from exc
        return cls(first_site, spins)

    def to_string(self) -> str:
        return "".join("u" if s == UP else "d" for s in self.spins)

    @property
    def last_site(self) -> int:
        return self.first_site + len(self.spins) - 1

    def array(self) -> np.ndarray:
        return np.asarray(self.spins, dtype=np.int8)

    def spin_at(self, site: int) -> int:
        if not self.first_site <= site <= self.last_site:
            raise IndexOutOfRangeError(f"site {site} outside window")
        return self.spins[site - self.first_site]

    def __len__(self) -> int:
        return len(self.spins)


@dataclass(frozen=True)
class FlipSpec:
    """Lattice site of the spin flipped in protocol step 2."""

    site: int


@dataclass(frozen=True)
class ParticleTracker:
    """Particle index with the state-independent part of its macrosite."""

    j: int
    c: int


@dataclass(frozen=True)
class Background:
    """Post-flip species sequence ``b^(0)`` with its index window.

    ``species[k]`` is ``b_j`` for ``j = j_min + k``.  ``left_cell`` and
    ``right_cell`` optionally declare repeating spin-unit cells (strings
    over ``u``/``d``) used to extend the window when an operation needs a
    wider light-cone guard; each must match its window edge up to a cyclic
    rotation.

    ``chain`` optionally restricts the state to the open chain of sites
    ``chain[0]..chain[1]`` (see ``on_chain``): rows are then rendered only
    over the chain, and the engine evolves the impurity with walls at the
    chain ends instead of on the infinite chain.
    """

    species: tuple[int, ...]
    j_min: int
    convention: str = "left"
    left_cell: str | None = None
    right_cell: str | None = None
    chain: tuple[int, int] | None = None

    def __post_init__(self):
        if not set(self.species) <= {0, 1}:
            raise ValueError("species must be 0 or 1")
        if self.convention not in ("left", "right"):
            raise ValueError("convention must be 'left' or 'right'")
        if self.j_min > -2 or self.j_max < 3:
            raise ValueError("background must cover particles -2..3 around the impurity")
        if self.b(0) == 1 and self.b(1) == 0:
            # impurity would widen to four down spins: not a flip-protocol state
            raise NotJammedError("b_0 = 1 with b_1 = 0 does not describe a single flip")
        # the convention tag must match the impurity geometry, otherwise the
        # implied pre-flip state was not jammed
        if self.convention == "left" and self.b(0) == 1:
            raise NotJammedError("left convention requires species 0 for particle 0")
        if self.convention == "right" and self.b(1) == 0:
            raise NotJammedError("right convention requires species 1 for particle 1")
        for cell in (self.left_cell, self.right_cell):
            if cell is not None and (not cell or set(cell) - {"u", "d"}):
                raise ValueError("cells must be non-empty strings over 'u'/'d'")
        if self.chain is not None:
            lo, hi = self.chain
            if not (lo <= -1 and hi >= 0):
                raise ValueError("chain must contain the flipped pair at sites -1 and 0")

    # -- basic indexing -------------------------------------------------

    @property
    def j_max(self) -> int:
        return self.j_min + len(self.species) - 1

    def _off(self, j: int) -> int:
        return j - self.j_min

    def b(self, j: int) -> int:
        if not self.j_min <= j <= self.j_max:
            raise IndexOutOfRangeError(f"particle {j} outside [{self.j_min}, {self.j_max}]")
        return self.species[self._off(j)]

    @cached_property
    def _b_arr(self) -> np.ndarray:
        return np.asarray(self.species, dtype=np.int64)

    @cached_property
    def _c_arr(self) -> np.ndarray:
        """c(j) over the stored range; macrosite of particle j is c(j) + theta(j>n)."""
        b = self._b_arr
        adj = b[:-1] * (1 - b[1:])  # A(j) = b_j (1 - b_{j+1}) at index j
        prefix = np.concatenate([[0], np.cumsum(adj)])  # prefix[k] = sum of A over first k
        js = np.arange(self.j_min, self.j_max + 1, dtype=np.int64)
        c = np.empty_like(js)
        pos = js >= 1
        c[pos] = js[pos] - 1 - (prefix[js[pos] - self.j_min] - prefix[1 - self.j_min])
        neg = ~pos
        c[neg] = js[neg] - 1 + (prefix[0 - self.j_min] - prefix[js[neg] - self.j_min])
        return c

    @cached_property
    def _pos0(self) -> np.ndarray:
        """Site of particle j when the impurity sits to its right (j <= n)."""
        return 2 * self._c_arr - self._b_arr

    @cached_property
    def _pos1(self) -> np.ndarray:
        """Site of particle j when the impurity sits to its left (j > n)."""
        return self._pos0 + 2

    @cached_property
    def _up_sites(self) -> np.ndarray:
        """Up-spin sites of the state n = 0, one per stored particle."""
        split = 1 - self.j_min  # offset of particle 1, the first right of the impurity
        return np.concatenate([self._pos0[:split], self._pos1[split:]])

    def c(self, j: int) -> int:
        if not self.j_min <= j <= self.j_max:
            raise IndexOutOfRangeError(f"particle {j} outside [{self.j_min}, {self.j_max}]")
        return int(self._c_arr[self._off(j)])

    def tracker(self, j: int) -> ParticleTracker:
        return ParticleTracker(j, self.c(j))

    def site_of(self, j: int, n: int) -> int:
        """Site occupied by particle j in the basis state with impurity index n."""
        base = self._pos0[self._off(j)]
        return int(base + 2) if j > n else int(base)

    @cached_property
    def _hash(self) -> int:
        return hash((self.species, self.j_min, self.convention, self.chain))

    def __hash__(self) -> int:
        return self._hash

    # -- rendering -------------------------------------------------------

    @property
    def site_min(self) -> int:
        """Leftmost site whose content is determined by the stored particles.

        Particle ``j_min`` always renders unshifted (every valid ``n``
        satisfies ``n >= j_min``), so its site is determined.
        """
        return int(self._pos0[0])

    @property
    def site_max(self) -> int:
        return int(self._pos1[-1])

    def site_maps(self, site_lo: int, site_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints ``(j0, j1)`` of the sites ``site_lo..site_hi`` in the impurity index.

        Site ``site_lo + k`` is down exactly in the states ``j1[k] <= n < j0[k]``:
        ``j0`` is the particle whose unshifted site it is, ``j1`` the one whose
        shifted site it is (a sentinel beyond every index where there is none).
        """
        if site_lo < self.site_min or site_hi > self.site_max:
            raise GuardError(
                f"window [{site_lo}, {site_hi}] outside rendered range "
                f"[{self.site_min}, {self.site_max}]"
            )
        if self.chain is not None and (site_lo < self.chain[0] or site_hi > self.chain[1]):
            raise GuardError(f"window [{site_lo}, {site_hi}] outside the chain {self.chain}")
        width = site_hi - site_lo + 1
        j0 = np.full(width, _NO_J0)
        j1 = np.full(width, _NO_J1)
        js = np.arange(self.j_min, self.j_max + 1, dtype=np.int64)
        m0 = (self._pos0 >= site_lo) & (self._pos0 <= site_hi)
        j0[self._pos0[m0] - site_lo] = js[m0]
        m1 = (self._pos1 >= site_lo) & (self._pos1 <= site_hi)
        j1[self._pos1[m1] - site_lo] = js[m1]
        return j0, j1

    def render_block(self, n_lo: int, n_hi: int, site_lo: int, site_hi: int) -> np.ndarray:
        """Spin matrix (+1/-1) of basis states n = n_lo..n_hi over a site window.

        Row ``k`` is the rendering of the state with impurity index
        ``n_lo + k``; column ``m`` is site ``site_lo + m``.
        """
        if n_lo < self.j_min + 1 or n_hi > self.j_max - 1:
            raise GuardError(
                f"impurity indices [{n_lo}, {n_hi}] need particles outside "
                f"[{self.j_min}, {self.j_max}]"
            )
        j0, j1 = self.site_maps(site_lo, site_hi)
        ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)[:, None]
        up = (ns >= j0[None, :]) | (ns < j1[None, :])
        return np.where(up, UP, DOWN).astype(np.int8)

    def render(self, n: int, site_lo: int, site_hi: int) -> np.ndarray:
        return self.render_block(n, n, site_lo, site_hi)[0]

    def render_window(self, n: int, site_lo: int, site_hi: int) -> SpinWindow:
        row = self.render(n, site_lo, site_hi)
        return SpinWindow(site_lo, tuple(int(s) for s in row))

    # -- open chain ------------------------------------------------------

    def on_chain(self, site_lo: int, site_hi: int) -> "Background":
        """The same state cut to the open chain of sites ``site_lo..site_hi``."""
        return replace(self, chain=(int(site_lo), int(site_hi)))

    @property
    def infinite(self) -> "Background":
        """The same state on the infinite chain (``self`` without a chain)."""
        return self if self.chain is None else replace(self, chain=None)

    def particles_seen(self, site_lo: int, site_hi: int) -> tuple[int, int]:
        """First and last particle on a site of [site_lo, site_hi] in some basis state."""
        first = int(np.searchsorted(self._pos1, site_lo, side="left"))
        last = int(np.searchsorted(self._pos0, site_hi, side="right")) - 1
        if first > last:
            raise GuardError(f"no stored particle reaches [{site_lo}, {site_hi}]")
        return self.j_min + first, self.j_min + last

    # -- extension -------------------------------------------------------

    def extended_to_particles(self, j_lo: int, j_hi: int) -> "Background":
        """Return a background covering at least [j_lo, j_hi], tiling edge cells.

        Extension is arithmetic on the up sites of the state n = 0.  The edge
        tile, the up sites within ``len(cell)`` sites of the window edge,
        repeats at offsets of ``len(cell)`` sites, and the new particles take
        the species of their sites.  The tile must be a cyclic rotation of the
        declared cell and the recurrence must reproduce the tiled sites,
        otherwise ``NotJammedError``.  A chain is kept.
        """
        if j_lo >= self.j_min and j_hi <= self.j_max:
            return self
        if (j_lo < self.j_min and self.left_cell is None) or (
            j_hi > self.j_max and self.right_cell is None
        ):
            raise GuardError(
                f"particle range [{j_lo}, {j_hi}] exceeds [{self.j_min}, {self.j_max}] "
                "and no edge cells are declared"
            )
        sites, j_min = self._up_sites, self.j_min
        if j_lo < self.j_min:
            left = _edge_tiles(sites, self.left_cell, self.j_min - j_lo, "left")
            sites = np.concatenate([left, sites])
            j_min -= len(left)
        if j_hi > self.j_max:
            right = _edge_tiles(sites, self.right_cell, j_hi - self.j_max, "right")
            sites = np.concatenate([sites, right])
        return _background_from_sites(
            sites, j_min, self.convention, self.left_cell, self.right_cell, self.chain
        )

    def extended_to_sites(self, site_lo: int, site_hi: int, pad: int = 4) -> "Background":
        """Extend until the rendered range covers [site_lo - pad, site_hi + pad].

        Only a side that falls short grows, by one particle per missing
        site: neighbouring up spins are one or two sites apart.
        """
        lo, hi = site_lo - pad, site_hi + pad
        out = self.extended_to_particles(
            self.j_min - max(0, self.site_min - lo), self.j_max + max(0, hi - self.site_max)
        )
        if out.site_min > lo or out.site_max < hi:
            raise GuardError("extension failed to cover the requested sites")
        return out


def _edge_tiles(sites: np.ndarray, cell: str, count: int, side: str) -> np.ndarray:
    """Up sites of enough copies of the edge tile to add at least ``count`` particles.

    The tile covers the ``len(cell)`` sites at the ``side`` edge of the
    sorted up sites ``sites``; its spin pattern must be a cyclic rotation of
    ``cell``.  Copies lie at multiples of ``len(cell)`` beyond the edge.
    """
    p = len(cell)
    if side == "left":
        start = int(sites[0])
        tile = sites[: np.searchsorted(sites, start + p)]
    else:
        start = int(sites[-1]) - p + 1
        tile = sites[np.searchsorted(sites, start) :]
    up = np.zeros(p, dtype=bool)
    up[tile - start] = True
    pattern = "".join(np.where(up, "u", "d"))
    if pattern not in cell + cell:
        raise NotJammedError(
            f"{side} edge tile {pattern!r} is not a rotation of the declared cell {cell!r}"
        )
    reps = count // len(tile) + 2
    shifts = p * (np.arange(-reps, 0) if side == "left" else np.arange(1, reps + 1))
    return (shifts[:, None] + tile[None, :]).ravel()


def _background_from_sites(sites: np.ndarray, j_min: int, *fields) -> Background:
    """Background whose state n = 0 has its up spins exactly on ``sites``.

    ``fields`` are the Background fields after ``j_min``.  Every particle
    takes the species of its site; the recurrence must then reproduce every
    site, which is the full jamming check in disguise.
    """
    bg = Background(tuple((sites % 2).tolist()), j_min, *fields)
    if not np.array_equal(bg._up_sites, sites):
        raise NotJammedError("window is not a single-flip state of a jammed background")
    return bg


@dataclass(frozen=True)
class ImpurityBasisState:
    """Label ``n`` of a basis state over a fixed background."""

    n: int
    background: Background

    def __post_init__(self):
        bg = self.background
        if not bg.j_min + 1 <= self.n <= bg.j_max - 1:
            raise IndexOutOfRangeError(f"impurity index {self.n} outside background")


def macrosite(j: int, n: int, bg: Background) -> int:
    """Macrosite of particle ``j`` in the state with impurity index ``n``."""
    if not (bg.j_min <= j - 1 and j + 1 <= bg.j_max):
        raise IndexOutOfRangeError(f"particle {j} and neighbours must be stored")
    return bg.c(j) + (1 if j > n else 0)


def render(state: ImpurityBasisState, site_lo: int, site_hi: int) -> SpinWindow:
    """Spins of ``state`` on ``[site_lo, site_hi]``."""
    return state.background.render_window(state.n, site_lo, site_hi)


# -- protocol parsing ----------------------------------------------------


def _down_runs(spins: np.ndarray) -> np.ndarray:
    """(start, stop) index pairs (inclusive) of the maximal runs of two or more downs."""
    down = np.concatenate([[False], spins == DOWN, [False]])
    runs = np.flatnonzero(down[1:] != down[:-1]).reshape(-1, 2) - [0, 1]
    return runs[runs[:, 1] > runs[:, 0]]


def background_from_postflip(
    window: SpinWindow,
    convention: str = "left",
    left_cell: str | None = None,
    right_cell: str | None = None,
) -> Background:
    """Parse a post-flip spin window into a Background.

    The window must be jammed except for a single run of two or three
    consecutive down spins.  Sites are relabelled so the down pair created
    by the flip sits at (-1, 0); for a three-down run the ``convention``
    argument selects which pair is anchored there.
    """
    spins = window.array()
    # runs touching the window edge count too: they may continue outside
    runs = _down_runs(spins)
    if len(runs) != 1:
        raise NotJammedError(f"expected exactly one multi-down run, found {len(runs)}")
    a, b = (int(k) for k in runs[0])
    if b - a > 2:
        raise NotJammedError("down run longer than three sites")
    if a == 0 or b == len(spins) - 1:
        raise NotJammedError("impurity touches the window edge")
    # the pair (b-1, b) goes to sites (-1, 0), except (a, a+1) for a
    # three-down run in the left convention
    anchor = window.first_site + (a + 1 if b - a == 2 and convention == "left" else b)
    sites = np.flatnonzero(spins == UP) + (window.first_site - anchor)
    if len(sites) < 6:
        raise NotJammedError("window too small to anchor the background")
    n_left = int(np.searchsorted(sites, -1))
    if n_left < 3 or len(sites) - n_left < 3:
        raise NotJammedError("need at least three particles on each side of the impurity")
    return _background_from_sites(sites, 1 - n_left, convention, left_cell, right_cell)


def background_from_spins(
    window: SpinWindow,
    flip: FlipSpec,
    convention: str = "auto",
    left_cell: str | None = None,
    right_cell: str | None = None,
) -> Background:
    """Apply the flip protocol to a jammed window and parse the result."""
    arr = window.array()
    if len(_down_runs(arr)):
        raise NotJammedError("window is not jammed before the flip")
    k = flip.site - window.first_site
    if not 1 <= k <= len(arr) - 2:
        raise IndexOutOfRangeError("flip site must be interior to the window")
    if arr[k] != UP:
        raise FlipIneffectiveError("flip site does not hold a spin up")
    down_left = arr[k - 1] == DOWN
    down_right = arr[k + 1] == DOWN
    if not (down_left or down_right):
        raise FlipIneffectiveError("flipped spin not adjacent to a down spin")
    if convention == "auto":
        convention = "left" if down_left else "right"
    elif convention == "left" and not down_left:
        raise FlipIneffectiveError("left convention needs a down spin left of the flip")
    elif convention == "right" and not down_right:
        raise FlipIneffectiveError("right convention needs a down spin right of the flip")
    arr[k] = DOWN
    flipped = SpinWindow(window.first_site, tuple(arr.tolist()))
    return background_from_postflip(flipped, convention, left_cell, right_cell)


# -- coarse-grained geometry ----------------------------------------------


def coarse_xi(bg: Background, j: int, radius: int) -> float:
    """Mean of ``1 - b_m (1 - b_{m+1})`` for m in [j - radius, j + radius]."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if j - radius < bg.j_min or j + radius + 1 > bg.j_max:
        raise IndexOutOfRangeError("averaging window outside stored background")
    b = bg._b_arr
    lo, hi = bg._off(j - radius), bg._off(j + radius)
    adj = b[lo : hi + 1] * (1 - b[lo + 1 : hi + 2])
    return float(1.0 - adj.mean())


def x_of_ell(bg: Background, ell: int) -> float:
    """Particle-index coordinate of site ``ell``.

    Inverts the exact cumulative macro-distance ``phi(j) = c(j) + 1``
    against the target ``ell / 2`` with linear interpolation; ties break
    toward smaller ``x``.
    """
    phi = bg._c_arr + 1
    target = ell / 2.0
    if target < phi[0] or target > phi[-1]:
        raise IndexOutOfRangeError(f"site {ell} beyond the stored background")
    idx = int(np.searchsorted(phi, target, side="left"))
    js = np.arange(bg.j_min, bg.j_max + 1)
    if phi[idx] == target:
        return float(js[idx])
    # steps are 0 or 1, and a strict crossing means the step here is 1
    return float(js[idx - 1] + (target - phi[idx - 1]))


# -- canonical backgrounds -------------------------------------------------


_CORE_CELLS = 4  # unit cells parsed on each side of the flip before a preset grows


def periodic_flip_background(
    cell: str, flip_site: int, particle_extent: int, convention: str = "auto"
) -> Background:
    """Flip protocol applied to an infinite periodic jammed state.

    ``cell`` is the repeating spin unit (string over u/d) anchored so that
    site ``s`` holds ``cell[s mod len(cell)]``.  A core of ``2 * _CORE_CELLS + 1``
    cells centred on the flip grows to at least ``particle_extent`` particles
    on each side.
    """
    if "u" not in cell:
        raise NotJammedError("cell carries no particles")
    p = len(cell)
    first = (flip_site // p - _CORE_CELLS) * p  # multiple of p, so site s maps to cell[s mod p]
    window = SpinWindow.from_string(cell * (2 * _CORE_CELLS + 1), first)
    return background_from_spins(
        window, FlipSpec(flip_site), convention=convention, left_cell=cell, right_cell=cell
    ).extended_to_particles(-particle_extent, particle_extent)


def period3_flip_background(particle_extent: int = 64) -> Background:
    """Period-3 up-up-down background with the canonical central flip."""
    # pre-flip: up unless site = 0 mod 3; flip the up at site -1 (down on its right)
    return periodic_flip_background("duu", -1, particle_extent, convention="right")


def neel_flip_background(particle_extent: int = 64) -> Background:
    """Neel state (up on even sites) with the central up spin flipped."""
    return periodic_flip_background("ud", 0, particle_extent, convention="left")


def weak_flip_background(m_start: int, length: int, particle_extent: int = 64) -> Background:
    """Neel state with ``length`` extra up spins on macrosites m_start.., flipped at 0.

    The extra up spins sit at odd sites ``2 l' - 1`` for
    ``l' = m_start .. m_start + length - 1``, forming the single
    two-species domain of the weakly interacting protocol.  A core of the
    domain and ``_CORE_CELLS`` Neel cells on each side grows to at least
    ``particle_extent`` particles on each side.
    """
    if m_start <= 0:
        raise ValueError("domain must start at a positive macrosite")
    if length < 1:
        raise ValueError("domain length must be at least one macrosite")
    # site pairs (2k, 2k + 1) from k = -_CORE_CELLS; odd site 2k + 1 is on macrosite k + 1
    text = "ud" * (_CORE_CELLS + m_start - 1) + "uu" * length + "ud" * _CORE_CELLS
    window = SpinWindow.from_string(text, -2 * _CORE_CELLS)
    return background_from_spins(
        window, FlipSpec(0), convention="left", left_cell="du", right_cell="du"
    ).extended_to_particles(-particle_extent, particle_extent)
