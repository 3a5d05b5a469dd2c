"""Seeded operation streams for the benchmark workloads.

Each workload is an endless stream of ``foldedxxz`` command lines derived
from ``(workload, seed)`` alone, so the same seed gives the same inputs on
every commit.  The program only ever sees the generated argv.

A stream opens with a short prelude (``late``: one entropy cut; ``cone``:
its two largest blocks) and then repeats one cycle of *slots*.  The seed
draws each slot's inputs once: its background, window and time.  Every
later cycle runs the slot again with its time moved by ``TIME_STEP`` (and
an explicit window by one site) per cycle, so the slot's cost stays the
same while no two operations share a time.  The benchmark reports medians
per slot over the cycles (see ``run.py``), so a slowdown of the host that
covers less than half of a run hardly moves them.

Times are stratified: the time range is cut into one stratum per slot,
each operation kind gets one slot in every part of the range, and the
seed only moves a time within its stratum.  So every seed and every run
sees the same mix of problem sizes.

This module uses the standard library only; the setup probe imports it
before timing ``import foldedxxz``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

WORKLOADS = ("cone", "late")

# largest time per workload: the gate sizes its reference backgrounds by it
MAX_TIME = {"cone": 300.0, "late": 1.0e4}
# time at which the setup probe builds the workload's background pool
SETUP_TIME = {"cone": 300.0, "late": 1000.0}

# cone runs one slot off the rendered basis (entmap, duality or verify)
# after this many diagonal ones
OFFBASIS_EVERY = 2
# the dense oracle stays at N <= 12: one N = 14 operation (the
# oracle-profile-agreement check's 3.7 s sector eigh, or a 1.2-2 s duality
# run) would dominate the tail
DUALITY_DELTAS = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus the inputs the correctness gate needs.

    ``argv`` excludes ``--out``; ``bg`` is a background spec (see
    ``background_argv``) or None; ``params`` holds kind-specific inputs.
    """

    kind: str
    argv: tuple[str, ...]
    times: tuple[float, ...] = ()
    bg: dict | None = None
    params: dict = field(default_factory=dict)
    # operations of one slot repeat in every cycle at the same cost;
    # None for the prelude
    slot: tuple | None = None


def _fmt_time(t: float) -> str:
    return f"{t:.6f}"


# -- backgrounds -----------------------------------------------------------


def _random_cell(rng: random.Random, ups: int, length: int) -> str:
    """Periodic jammed unit cell with ``ups`` up spins in ``length`` sites.

    Jammed means no two adjacent downs, cyclically.  Extension cost grows
    with sites per particle, so callers fix the density and the seed
    draws the arrangement.
    """
    while True:
        cell = "".join(rng.sample("u" * ups + "d" * (length - ups), length))
        if "dd" not in cell + cell[0]:
            return cell


def _inline(rng: random.Random, ups: int, length: int) -> dict:
    """Tiled random cell with the flip on an up spin next to a down spin.

    The window holds at least six particles on each side of the flip, so
    the program can anchor it; ``--pad`` declares the cell on both edges.
    """
    cell = _random_cell(rng, ups, length)
    reps = 2 * math.ceil(6 / ups) + 1
    text = cell * reps
    mid = (reps // 2) * length
    flips = [
        i
        for i in range(mid, mid + length)
        if text[i] == "u" and "d" in (text[i - 1], text[i + 1])
    ]
    return {
        "kind": "inline",
        "cell": cell,
        "text": text,
        "flip": rng.choice(flips),
        "first": rng.randint(-40, 40),
    }


def _weak(rng: random.Random) -> dict:
    return {"kind": "weak", "m": rng.randint(1, 16), "M": rng.randint(1, 10)}


FIG2A = {"kind": "fig2a"}
FIG2B = {"kind": "fig2b"}


def background_argv(bg: dict) -> list[str]:
    if bg["kind"] in ("fig2a", "fig2b"):
        return ["--background", bg["kind"]]
    if bg["kind"] == "weak":
        return ["--background", "weak", "--m", str(bg["m"]), "--M", str(bg["M"])]
    text, k = bg["text"], bg["flip"]
    marked = text[:k] + "U" + text[k + 1 :]
    cell = bg["cell"]
    return ["--background", marked, f"--first-site={bg['first']}", "--pad", f"{cell},{cell}"]


def is_period3(bg: dict) -> bool:
    if bg["kind"] != "inline":
        return bg["kind"] == "fig2a"
    cell = bg["cell"]
    return len(cell) % 3 == 0 and cell == cell[:3] * (len(cell) // 3)


# up spins and length of the inline cells: densities 1/2, 3/5, 2/3 and 3/4
CELLS = ((3, 6), (3, 5), (4, 6), (3, 4))


def background_pool(workload: str, seed: int) -> list[dict]:
    """The workload's backgrounds: built by the set-up probe, used by its slots."""
    rng = _rng(workload, seed, "pool")
    return [FIG2A, FIG2B, _weak(rng)] + [_inline(rng, *cell) for cell in CELLS]


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # string seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{stream}")


# -- operation streams -----------------------------------------------------

# time added to a slot per cycle: far below a stratum, far above the
# six decimals the command line carries
TIME_STEP = 1.0e-3


def _window(lo: int, width: int) -> str:
    return f"{lo}:{lo + width - 1}"


def _stratified(rng: random.Random, kinds: int, backgrounds: int) -> dict[tuple[int, int], float]:
    """Position in [0, 1) of the (kind, background) slots.

    The range is cut into ``backgrounds`` strata of ``kinds`` sub-strata.
    Kind ``k`` on background ``b`` takes sub-stratum ``k`` of stratum
    ``(b + step * k) % backgrounds``, so every kind covers every stratum
    once and every background meets the kinds in different strata.  The
    seed draws the position within the sub-stratum.
    """
    step = max(1, backgrounds // kinds)
    return {
        (k, b): (((b + step * k) % backgrounds) + (k + rng.random()) / kinds) / backgrounds
        for k in range(kinds)
        for b in range(backgrounds)
    }


def _cone(seed: int) -> Iterator[Op]:
    """Full-light-cone diagonal profiles at the CLI's default windows.

    One cycle runs ``profile --obs sz,sz-asym`` and ``jamming`` on each
    background of the pool, with one slot of ``_offbasis`` after every
    ``OFFBASIS_EVERY`` of them.
    """
    pool = background_pool("cone", seed)
    kinds = ("profile", "jamming")
    where = _stratified(_rng("cone", seed, "times"), len(kinds), len(pool))
    lo, hi = 50.0, 300.0

    def op(kind: str, b: int, t: float, slot) -> Op:
        argv = [kind, *background_argv(pool[b]), "--times", _fmt_time(t)]
        if kind == "profile":
            argv += ["--obs", "sz,sz-asym"]
        return Op(kind, tuple(argv), (float(_fmt_time(t)),), pool[b], slot=slot)

    # the two largest blocks first, so that every run reaches the same peak memory
    top = hi - _rng("cone", seed, "prelude").random()
    for kind in kinds:
        yield op(kind, 0, top, None)
    diag = [(kind, b) for b in range(len(pool)) for kind in kinds]
    offbasis = _offbasis(seed)
    for cycle in itertools.count():
        shift = cycle * TIME_STEP
        extra = list(offbasis(cycle))
        for k, (kind, b) in enumerate(diag):
            t = lo + (hi - lo) * where[kinds.index(kind), b] + shift
            yield op(kind, b, t, ("diag", k))
            if k % OFFBASIS_EVERY == OFFBASIS_EVERY - 1 and extra:
                yield extra.pop(0)
        yield from extra


def _late(seed: int) -> Iterator[Op]:
    """Point probes at late times, led by one entropy cut at Jt <= 1000."""
    pool = background_pool("late", seed)
    rng = _rng("late", seed, "ops")
    kinds = ("profile", "jamming", "current", "fluct")
    widths = {"profile": 11, "jamming": 4, "current": 1, "fluct": 11}
    where = _stratified(_rng("late", seed, "times"), len(kinds), len(pool))
    lo, hi = 1.0e3, 1.0e4
    # the cone block of one cut is O(N^2) int8 (about 1 GB at Jt = 1000,
    # 9 GB at Jt = 3000), so the cut stays just below Jt = 1000
    t = float(_fmt_time(1000.0 - 5.0 * rng.random()))
    cut = rng.randint(-30, 30)
    yield Op(
        "entropy",
        ("entropy", *background_argv(FIG2A), "--times", _fmt_time(t), f"--sites={cut}:{cut}"),
        (t,),
        FIG2A,
    )
    slots = []
    for b in range(len(pool)):
        for k, kind in enumerate(kinds):
            t = lo * (hi / lo) ** where[k, b]
            reach = int(4.0 * lo)  # inside the light cone at every time
            slots.append((kind, b, t, rng.randint(-reach, reach - widths[kind] - 100)))
    for cycle in itertools.count():
        for slot, (kind, b, t, first) in enumerate(slots):
            t = float(_fmt_time(t + cycle * TIME_STEP))
            window = _window(first + cycle, widths[kind])
            flag = "--particles" if kind == "fluct" else "--sites"
            argv = [kind, *background_argv(pool[b]), "--times", _fmt_time(t), f"{flag}={window}"]
            yield Op(kind, tuple(argv), (t,), pool[b], slot=("late", slot))


def _offbasis(seed: int):
    """Closed forms and the dense oracle: paths off the rendered basis.

    Returns a function of the cycle number giving that cycle's slots: two
    ``entmap`` maps (Jt in [1, 10], 17 and 26 sites), three ``duality``
    runs (N = 8, 10, 12) and one ``verify`` run of both oracle checks.
    The seed draws the domains, windows, anisotropies and times.
    """
    rng = _rng("cone", seed, "offbasis")
    maps = []
    for i, width in enumerate((17, 26)):
        mm, big_m = rng.randint(2, 12), rng.randint(1, 8)
        t = 1.0 + 9.0 * (i + rng.random()) / 2.0
        maps.append((mm, big_m, t, width, rng.randint(-12, 2 * (mm + big_m))))
    runs = []
    for n, n_times in ((8, 1), (10, 2), (12, 1)):
        # the oracle refuses times whose light cone reaches the chain edge
        t_max = (n / 2.0 - 2.0) / 4.0
        ts = [t_max * (0.3 + 0.6 * (j + rng.random()) / n_times) for j in range(n_times)]
        runs.append((n, ts, sorted(rng.sample(DUALITY_DELTAS, 2 + n % 2))))
    checks = ("oracle-stepper-agreement", "oracle-sector-invariance")

    def cycle_ops(cycle: int) -> Iterator[Op]:
        for k, (mm, big_m, t, width, first) in enumerate(maps):
            t = float(_fmt_time(t + cycle * TIME_STEP))
            argv = [
                "entmap", "--m", str(mm), "--M", str(big_m), "--times", _fmt_time(t),
                f"--sites={_window(first, width)}", "--keep-zeros",
            ]
            yield Op("entmap", tuple(argv), (t,), None, {"m": mm, "M": big_m, "width": width}, ("entmap", k))
            n, ts, deltas = runs[k]
            yield _duality(n, ts, deltas, cycle, ("duality", k))
        n, ts, deltas = runs[2]
        yield _duality(n, ts, deltas, cycle, ("duality", 2))
        yield Op("verify", ("verify", "--checks", ",".join(checks)), (), None, {"checks": checks}, ("verify", 0))

    return cycle_ops


def _duality(n: int, ts: list[float], deltas: list[float], cycle: int, slot) -> Op:
    # a tenth of TIME_STEP: the oracle's times are short and carry 4 decimals
    ts = tuple(round(t + cycle * TIME_STEP / 10.0, 4) for t in ts)
    argv = [
        "duality", "--delta", ",".join(f"{d:g}" for d in deltas), "--n-sites", str(n),
        "--times", ",".join(f"{t:g}" for t in ts),
    ]
    return Op("duality", tuple(argv), ts, None, {"n": n, "deltas": deltas}, slot)


_STREAMS = {"cone": _cone, "late": _late}


def operations(workload: str, seed: int) -> Iterator[Op]:
    return _STREAMS[workload](seed)
