"""Span tracing around calls into the program's layers.

The tracer replaces layer entry points of ``foldedxxz`` with wrappers that
record one span per call: (name, start, end, parent span, op id).  The
program's code is not changed; only its module and class attributes are
rebound for the lifetime of the benchmark process.  Spans stay in memory
and are written once, after the timed loop.

A span's self time is its duration minus the durations of its direct
children.  The benchmark wraps ``cli.main`` itself as the root span
``cli``, so the self times of all spans of one operation add up to the
operation's wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name): module-level functions the command line
# reaches, rebound in every foldedxxz module that imported them
FUNCTIONS = [
    ("bessel", "bessel_weights", "bessel"),
    ("lattice", "periodic_flip_background", "lattice.build"),
    ("lattice", "period3_flip_background", "lattice.build"),
    ("lattice", "neel_flip_background", "lattice.build"),
    ("lattice", "weak_flip_background", "lattice.build"),
    ("lattice", "background_from_spins", "lattice.build"),
    ("engine", "sigma_z_values", "engine.diag"),
    ("engine", "p_down_down_values", "engine.diag"),
    ("engine", "expect_pauli_string", "engine.offdiag"),
    ("engine", "schmidt_spectrum", "engine.schmidt"),
    ("asymptotics", "asym_sigma_z_profile", "asym"),
    ("weak", "entanglement_map", "weak"),
    ("weak", "assemble_rho", "weak.rho"),
    ("weak", "eof", "weak.eof"),
    ("oracle", "duality_compare", "oracle"),
    ("oracle", "build_hamiltonian", "oracle.build"),
    ("oracle", "evolve", "oracle.evolve"),
    ("verify", "run_checks", "verify"),
    ("cli", "_emit", "cli.emit"),
    ("cli", "_write_rows", "cli.emit"),
]
# (module, class, method, span name)
METHODS = [
    ("lattice", "Background", "extended_to_particles", "lattice.extend"),
    ("lattice", "Background", "render_block", "lattice.render"),
    ("oracle", "DualityReport", "to_json", "cli.emit"),
]
ROOT = "cli"
LAYERS = sorted({name for *_, name in FUNCTIONS + METHODS} | {ROOT})


def _count_bessel(counts, args, result, computed):
    counts["bessel.calls"] += 1
    counts["bessel.misses"] += computed
    counts["bessel.max_order_cutoff"] = max(counts["bessel.max_order_cutoff"], result.order_cutoff)


def _count_extend(counts, args, result, computed):
    # only calls that grew the background do work
    counts["lattice.extend.calls"] += result is not args[0]


def _count_render(counts, args, result, computed):
    counts["lattice.render.calls"] += 1
    counts["lattice.render.cells"] += result.size


def _counter(key):
    def count(counts, args, result, computed):
        counts[key] += 1

    return count


def _count_emit(path_arg, rows_arg):
    def count(counts, args, result, computed):
        if rows_arg is not None:
            counts["cli.rows"] += len(args[rows_arg])
        path = result[0] if path_arg is None else args[path_arg]
        counts["cli.bytes"] += Path(path).stat().st_size

    return count


# counters fire on the outermost span of their name only, so nested calls
# within one layer (``_emit`` -> ``_write_rows``) are not counted twice
COUNTERS = {
    "bessel_weights": _count_bessel,
    "extended_to_particles": _count_extend,
    "render_block": _count_render,
    "sigma_z_values": _counter("engine.diag.calls"),
    "p_down_down_values": _counter("engine.diag.calls"),
    "expect_pauli_string": _counter("engine.offdiag.calls"),
    "schmidt_spectrum": _counter("engine.schmidt.cuts"),
    "assemble_rho": _counter("weak.pairs"),
    "evolve": _counter("oracle.evolve.calls"),
    "_emit": _count_emit(None, 2),
    "_write_rows": _count_emit(0, 2),
    "to_json": _count_emit(1, None),
}


class Tracer:
    """Records spans while ``enabled``; ``install`` rebinds the layers."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name: str, counter=None):
        rec = self
        # a cached function computes only on a miss; others on every call
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            outermost = rec._open[name] == 0
            before = info().misses if info else 0
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(idx)
            rec._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._open[name] -= 1
                rec._stack.pop()
                rec.spans[idx] = (name, start, end, parent, rec.op)
            if counter is not None and outermost:
                computed = info().misses - before if info else 1
                counter(rec.counts, args, result, computed)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "foldedxxz" or k.startswith("foldedxxz.")]
        for mod_name, attr, name in FUNCTIONS:
            mod = sys.modules.get(f"foldedxxz.{mod_name}")
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(orig, name, COUNTERS.get(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(f"foldedxxz.{mod_name}"), cls_name, None)
            orig = getattr(cls, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.wrap(orig, name, COUNTERS.get(attr)))

    # -- analysis --------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds, busy seconds) per span name.

        Busy time sums the spans of a name that have no ancestor of the
        same name, so a layer calling itself is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        busy_s: dict[str, float] = defaultdict(float)
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += end - start - child[k]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                busy_s[name] += end - start
        return self_s, busy_s

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def overhead_per_span(calls: int = 20000) -> float:
    """Seconds one traced call adds to a call that does nothing."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap(noop, "probe")
    best = float("inf")
    for _ in range(3):
        probe.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        best = min(best, (wrapped - plain) / calls)
    return max(best, 0.0)
