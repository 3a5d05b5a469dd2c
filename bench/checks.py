"""Per-operation correctness gate, run outside the timed region.

Every operation's output files are read back and checked against
references that do not share the code path under test:

* diagonal values (``sz``, ``p_down_down``) against rows of
  ``Background.render_block`` weighted by ``bessel_weights(t).squares()``;
* the down-spin sum rule, where the output window covers the light cone;
* bond currents against the continuity equation
  ``j(l) - j(l+2) = (1/2) d<sigma^z_l>/dt``, with the time derivative
  taken exactly from the Bessel recurrence
  ``d J_n(4t)^2 / dt = 4 J_n (J_{n-1} - J_{n+1})``;
* entropies against their Schmidt counts, with ``schmidt_count <= 3`` on
  period-3 backgrounds;
* particle statistics against a direct sum of ``J_n^2``;
* ``weak.two_point`` against ``two_point_engine``, and the emitted
  entanglement of formation against ``eof(assemble_rho(...))``;
* the dense oracle's ``method="eigh"`` against ``method="krylov"``.

Each check samples a few values per operation with a seeded generator.
The worst residual among the exact references is kept as
``max_abs_err``.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from foldedxxz import bessel_weights, oracle, weak
from foldedxxz.engine import spin_current
from foldedxxz.lattice import (
    DOWN,
    Background,
    FlipSpec,
    SpinWindow,
    background_from_spins,
    neel_flip_background,
    period3_flip_background,
    weak_flip_background,
)

from workloads import MAX_TIME, Op, is_period3

EXACT = 1e-12      # same Bessel table, different summation or basis
ROUNDING = 2.3e-16  # per summed term, for running sums over the whole table
ORACLE = 1e-10     # two independent evolution methods
ENTROPY = 1e-9     # entropy of Schmidt values below the count threshold
SUM_RULE = 1e-9    # O(sites) accumulation of 1e-16 round-off
SAMPLES = 4
# one single-site current in this many gets the (costly) continuity
# check, which needs one extra engine current evaluation
CURRENT_SAMPLING = 4
# reference backgrounds kept: a workload's pool of seven fits
REFERENCE_CACHE = 8


def build_background(spec: dict, extent: int) -> Background:
    """Background for a workload spec, covering at least ``extent`` particles."""
    kind = spec["kind"]
    if kind == "fig2a":
        return period3_flip_background(extent)
    if kind == "fig2b":
        return neel_flip_background(extent)
    if kind == "weak":
        return weak_flip_background(spec["m"], spec["M"], extent)
    window = SpinWindow.from_string(spec["text"], spec["first"])
    flip = FlipSpec(spec["first"] + spec["flip"])
    bg = background_from_spins(window, flip, left_cell=spec["cell"], right_cell=spec["cell"])
    return bg.extended_to_particles(-extent, extent)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def _spins(bg: Background, n_cut: int, lo: int, hi: int) -> np.ndarray:
    """Rendered spins of basis states -n_cut..n_cut on sites lo..hi."""
    return bg.extended_to_sites(lo, hi).render_block(-n_cut, n_cut, lo, hi).astype(np.float64)


def _sz_rate(w, spins: np.ndarray) -> np.ndarray:
    """Exact d<sigma^z>/dt from the Bessel recurrence, per rendered column."""
    padded = np.concatenate([[0.0], w.values, [0.0]])
    rate = 4.0 * w.values * (padded[:-2] - padded[2:])
    return rate @ spins


@dataclass
class Verdict:
    values: int
    problems: list[str]


class Gate:
    """Checks each operation's output; keeps the worst exact residual."""

    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"{workload}:{seed}:gate")
        self._extent = bessel_weights(MAX_TIME[workload]).order_cutoff + 16
        self._references: dict[str, Background] = {}
        self.max_abs_err = 0.0
        self._problems: list[str] = []

    def check(self, op: Op, out_dir: Path, stdout: str) -> Verdict:
        self._problems = []
        values = getattr(self, f"_{op.kind}")(op, out_dir, stdout)
        return Verdict(values, self._problems)

    # -- helpers ---------------------------------------------------------

    def _fail(self, what: str) -> None:
        self._problems.append(what)

    def _residual(self, what: str, value: float, tol: float) -> None:
        if not math.isfinite(value) or value > tol:
            self._fail(f"{what}: residual {value:.3e} > {tol:.0e}")
        self.max_abs_err = max(self.max_abs_err, value)

    def _reference(self, spec: dict) -> Background:
        key = repr(sorted(spec.items()))
        if key not in self._references:
            if len(self._references) == REFERENCE_CACHE:
                del self._references[next(iter(self._references))]
            self._references[key] = build_background(spec, self._extent)
        return self._references[key]

    def _sample(self, items: list, k: int = SAMPLES) -> list:
        return self._rng.sample(items, min(k, len(items)))

    def _finite(self, what: str, values, bound: float) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            self._fail(f"{what}: no rows")
        elif not np.all(np.isfinite(arr)) or np.max(np.abs(arr)) > bound:
            self._fail(f"{what}: value outside [-{bound}, {bound}]")

    # -- diagonal observables -------------------------------------------

    def _profile(self, op: Op, out: Path, stdout: str) -> int:
        (t,) = op.times
        rows = _rows(out / "profile_sz.csv")
        sites = [int(r[1]) for r in rows]
        vals = [float(r[2]) for r in rows]
        self._finite("sz", vals, 1.0 + EXACT)
        w = bessel_weights(t)
        n_cut = w.order_cutoff
        bg = self._reference(op.bg)
        sq = w.squares()
        for k in self._sample(range(len(rows))):
            ref = float(sq @ _spins(bg, n_cut, sites[k], sites[k])[:, 0])
            self._residual(f"sz({sites[k]}) vs render_block", abs(ref - vals[k]), EXACT)
        # the down-spin count is conserved once the window holds the cone
        lo, hi = min(sites), max(sites)
        cone_lo, cone_hi = bg.site_of(-n_cut - 2, 0), bg.site_of(n_cut + 2, 0)
        if lo <= cone_lo and cone_hi <= hi and len(sites) == hi - lo + 1:
            before = int(np.sum(bg.extended_to_sites(lo, hi).render(0, lo, hi) == DOWN))
            after = float(np.sum(0.5 * (1.0 - np.asarray(vals))))
            self._residual("down-spin sum rule", abs(after - before), SUM_RULE)
        values = len(rows)
        if "--obs" in op.argv:
            asym = _rows(out / "profile_sz_asym.csv")
            self._finite("sz-asym", [float(r[2]) for r in asym], 1.0)
            if not {int(r[1]) for r in asym} <= set(sites):
                self._fail("sz-asym sites outside the sz window")
            values += len(asym)
        return values

    def _jamming(self, op: Op, out: Path, stdout: str) -> int:
        (t,) = op.times
        rows = _rows(out / "jamming.csv")
        bonds = [int(r[1]) for r in rows]
        p = [float(r[3]) for r in rows]
        self._finite("p_down_down", p, 1.0 + EXACT)
        for r in rows:
            if float(r[4]) != t * float(r[3]) or float(r[2]) != int(r[1]) / t:
                self._fail(f"bond {r[1]}: rescaled or ray column inconsistent")
                break
        w = bessel_weights(t)
        bg = self._reference(op.bg)
        for k in self._sample(range(len(rows))):
            spins = _spins(bg, w.order_cutoff, bonds[k], bonds[k] + 1)
            down = 0.5 * (1.0 - spins)
            ref = float(w.squares() @ (down[:, 0] * down[:, 1]))
            self._residual(f"p_dd({bonds[k]}) vs render_block", abs(ref - p[k]), EXACT)
        return len(rows)

    def _fluct(self, op: Op, out: Path, stdout: str) -> int:
        (t,) = op.times
        rows = _rows(out / "fluctuations.csv")
        w = bessel_weights(t)
        sq = w.squares()
        bg = self._reference(op.bg)

        def below(j: int) -> float:
            return math.fsum(sq[: max(0, min(len(sq), j + w.order_cutoff))])

        # the program's cumulative sum carries up to one rounding per term
        tol = max(EXACT, ROUNDING * len(sq))

        f0 = below(0)
        for r in rows:
            j, anchor = int(r[1]), int(r[2])
            pl, pu, mean, var, corr = (float(v) for v in r[3:8])
            f = below(j)
            if anchor != bg.c(j):
                self._fail(f"particle {j}: anchor {anchor} != c(j) = {bg.c(j)}")
            worst = max(
                abs(pu - f),
                abs(pl - (1.0 - f)),
                abs(mean - (anchor + f)),
                abs(var - (f - f * f)),
                abs(corr - ((f if j <= 0 else f0) - f0 * f)),
            )
            self._residual(f"particle {j} statistics vs sum of J_n^2", worst, tol)
        if not rows:
            self._fail("fluct: no rows")
        return len(rows)

    # -- off-diagonal observables ---------------------------------------

    def _current(self, op: Op, out: Path, stdout: str) -> int:
        (t,) = op.times
        rows = _rows(out / "current.csv")
        current = {int(r[1]): float(r[2]) for r in rows}
        # each Pauli term has norm 1/2, so |j| <= 2
        self._finite("current", list(current.values()), 2.0)
        if len(current) == 1 and self._rng.randrange(CURRENT_SAMPLING) == 0:
            (site,) = current
            w = bessel_weights(t)
            bg = self._reference(op.bg)
            rate = float(_sz_rate(w, _spins(bg, w.order_cutoff, site, site))[0])
            lhs = current[site] - spin_current(site + 2, t, bg)
            self._residual(f"continuity at site {site}", abs(lhs - 0.5 * rate), ORACLE)
        return len(rows)

    def _entropy(self, op: Op, out: Path, stdout: str) -> int:
        rows = _rows(out / "entropy.csv")
        for r in rows:
            s, count = float(r[2]), int(r[3])
            if count < 1 or not -EXACT <= s <= math.log2(count) + ENTROPY:
                self._fail(f"cut {r[1]}: entropy {s} inconsistent with {count} Schmidt values")
            if is_period3(op.bg) and count > 3:
                self._fail(f"cut {r[1]}: {count} Schmidt values on a period-3 background")
        if not rows:
            self._fail("entropy: no rows")
        return len(rows)

    # -- closed forms and the oracle ------------------------------------

    def _entmap(self, op: Op, out: Path, stdout: str) -> int:
        (t,) = op.times
        rows = _rows(out / "entmap.csv")
        width = op.params["width"]
        if len(rows) != width * (width - 1) // 2:
            self._fail(f"entmap: {len(rows)} rows for {width} sites")
        self._finite("eof", [float(r[3]) for r in rows], 1.0 + EXACT)
        cfg = weak.WeakConfig(op.params["m"], op.params["M"], t)
        factor = t * t / math.log2(t) if t > 1.0 else 1.0
        for r in self._sample(rows, 2):
            i, j, e, scaled = int(r[1]), int(r[2]), float(r[3]), float(r[4])
            ref = weak.eof(weak.assemble_rho((i, j), cfg))
            self._residual(f"eof({i},{j}) vs assemble_rho", abs(ref - e), EXACT)
            self._residual(f"rescaled eof({i},{j})", abs(scaled - e * factor) / max(1.0, abs(scaled)), EXACT)
            for a, b in (("z", "z"), ("x", "x"), ("x", "y")):
                closed = weak.two_point(a, b, i, j, cfg)
                engine = weak.two_point_engine(a, b, i, j, cfg)
                self._residual(f"{a}{b}({i},{j}) closed form vs engine", abs(closed - engine), ORACLE)
        return len(rows)

    def _duality(self, op: Op, out: Path, stdout: str) -> int:
        n, deltas = op.params["n"], op.params["deltas"]
        nf = n - 1
        tables = {}
        for t in op.times:
            stem = f"duality_t{t:g}".replace(".", "p")
            rows = _rows(out / f"{stem}.csv")
            if len(rows) != len(deltas) * nf:
                self._fail(f"duality t={t}: {len(rows)} rows for {len(deltas)} x {nf} bonds")
            for r in rows:
                fv, xv, dv = float(r[2]), float(r[3]), float(r[4])
                if dv != xv - fv:
                    self._fail(f"duality t={t}: deviation column inconsistent")
                    break
            tables[t] = rows
        (t,) = self._sample(list(op.times), 1)
        rows = tables[t]
        # default folded window of duality_compare: centred period-3 post-flip state
        lo = -(nf // 2)
        spins = [int(s) for s in period3_flip_background(16).render(0, lo, lo + nf - 1)]
        # the program evolved both chains with the dense sector eigh (N <= 12);
        # the reference takes the Krylov stepper, and eigh once more for the
        # folded chain
        h = oracle.build_hamiltonian(oracle.HamiltonianSpec("folded", nf))
        a = oracle.evolve(oracle.product_state(spins), h, t, method="eigh")
        b = oracle.evolve(oracle.product_state(spins), h, t, method="krylov")
        self._residual(f"folded N={nf} eigh vs krylov", float(np.max(np.abs(a - b))), ORACLE)
        emitted = np.array([float(r[2]) for r in rows[:nf]])
        self._residual(f"folded sz N={nf} vs krylov", float(np.max(np.abs(oracle.sz_profile(b, nf) - emitted))), ORACLE)
        k = self._rng.randrange(len(deltas))
        spec = oracle.HamiltonianSpec("xxz", n, delta=float(deltas[k]))
        dual = oracle.product_state(oracle.dual_spin_string(spins))
        psi = oracle.evolve(dual, oracle.build_hamiltonian(spec), t, method="krylov")
        emitted = np.array([float(r[3]) for r in rows[k * nf : (k + 1) * nf]])
        self._residual(f"xxz N={n} zz vs krylov", float(np.max(np.abs(oracle.zz_profile(psi, n) - emitted))), ORACLE)
        return sum(len(r) for r in tables.values())

    def _verify(self, op: Op, out: Path, stdout: str) -> int:
        lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
        passed = sum(ln.startswith("PASS") for ln in lines)
        if passed != len(op.params["checks"]) or passed != len(lines):
            self._fail(f"verify: {passed} of {len(op.params['checks'])} checks passed")
        return len(lines)
