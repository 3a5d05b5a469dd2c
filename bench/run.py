"""Benchmark for the foldedxxz command line, end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload cone --seed 1 --seconds 15 --trace 0

The benchmark imports ``foldedxxz`` from ``src/`` of the checkout it sits
in and drives ``foldedxxz.cli.main(argv)`` in-process: one client, closed
loop, one operation at a time, numeric-library threads capped at the
CPUs this process may run on.  Operations come from a seeded stream (see
``workloads.py``) until their summed wall time reaches ``--seconds``.
Before each operation the program's function caches are emptied, as in a
fresh ``foldedxxz`` process.  After each operation, outside the timed
region, ``checks.py`` verifies its output; a nonzero exit, an exception
or a failed check counts as a failed operation.

The stream repeats a cycle of slots of fixed cost.  ``values_per_s`` and
``op_p50_ms`` come from each slot's median over the cycles, so a slowdown
of the host during part of a run hardly moves them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layers (``tracing.py``), prints the per-layer metrics and writes
every span to ``.bench_trace/<workload>-seed<seed>.csv``.  The last line of
standard output is the result object; the line before it is the run
record (machine, versions, thread cap, commit, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# stop early if checks make a run overrun badly; runs must end within 180 s
LOOP_WALL_LIMIT_S = 140.0
TAIL_BEYOND = 10

# per-layer figures are means per operation of the traced run
PER_OP_COUNTS = {
    "bessel.calls": "1/op",
    "bessel.misses": "1/op",
    "lattice.extend.calls": "1/op",
    "lattice.render.calls": "1/op",
    "lattice.render.cells": "cells/op",
    "engine.diag.calls": "1/op",
    "engine.offdiag.calls": "1/op",
    "engine.schmidt.cuts": "1/op",
    "weak.pairs": "1/op",
    "oracle.evolve.calls": "1/op",
    "cli.rows": "rows/op",
    "cli.bytes": "B/op",
}
BUSY = (
    "bessel", "lattice.build", "lattice.extend", "lattice.render", "asym", "weak.rho",
    "weak.eof", "oracle.build", "oracle.evolve", "cli.emit", "verify",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _cap_threads() -> int:
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def _import_program():
    """Import foldedxxz from this checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "foldedxxz" / "__init__.py").is_file():
        sys.exit(f"bench: no foldedxxz package under {SRC}")
    sys.path.insert(0, str(SRC))
    import foldedxxz

    if Path(foldedxxz.__file__).resolve().parent != (SRC / "foldedxxz").resolve():
        sys.exit(f"bench: imported foldedxxz from {foldedxxz.__file__}, not from {SRC}")
    return foldedxxz


def _setup_probe(workload: str, seed: int) -> None:
    """One set-up: import the program and build the workload's backgrounds."""
    from workloads import SETUP_TIME, background_pool

    start = time.perf_counter()
    foldedxxz = _import_program()
    from checks import build_background

    extent = foldedxxz.bessel_weights(SETUP_TIME[workload]).order_cutoff + 16
    for spec in background_pool(workload, seed):
        build_background(spec, extent)
    print(f"{time.perf_counter() - start:.6f}")


def _measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _cache_clearers(package) -> list:
    """``cache_clear`` of every function cache at module level in the program."""
    clearers = []
    for name, mod in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            clearers += [obj.cache_clear for obj in vars(mod).values() if callable(getattr(obj, "cache_clear", None))]
    return clearers


def _slot_figures(ops: list[tuple]) -> tuple[float, float]:
    """(values per second, median latency in s) of a typical cycle.

    ``ops`` holds (slot, seconds, values) per operation.  Each slot gives
    its median seconds and values over the cycles; the prelude (slot
    None) is left out.  Values per second are the slots' median values
    over their median seconds, both summed.
    """
    per_slot: dict = {}
    for slot, seconds, values in ops:
        if slot is not None:
            per_slot.setdefault(slot, []).append((seconds, values))
    if not per_slot:  # a run too short to leave the prelude
        per_slot = {k: [(seconds, values)] for k, (_, seconds, values) in enumerate(ops)}
    seconds = [statistics.median(s for s, _ in v) for v in per_slot.values()]
    values = [statistics.median(n for _, n in v) for v in per_slot.values()]
    return sum(values) / sum(seconds), statistics.median(seconds)


def _run_op(call, op, out_dir: Path) -> tuple[object, str, str, float]:
    """(exit code or None on an exception, stdout, stderr, seconds)."""
    argv = list(op.argv) + ([] if op.kind == "verify" else ["--out", str(out_dir)])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    except Exception:  # an uncaught program error fails this operation only
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _machine() -> dict:
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[_read(str(index / "level")).strip()] = _read(str(index / "size")).strip()
    llc = caches[max(caches)] if caches else ""
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpu": cpu, "nproc": os.cpu_count(), "llc": llc, "ram_gib": round(ram / 2**30, 2)}


def _provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "foldedxxz").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _layer_metrics(tracer, latencies: list[float], slot_ops: list[tuple], failed: int, max_abs_err: float) -> dict:
    from tracing import LAYERS, overhead_per_span

    n = len(latencies)
    self_s, busy_s = tracer.layer_times()
    metrics = {key: (tracer.counts[key] / n, unit) for key, unit in PER_OP_COUNTS.items()}
    metrics["bessel.max_order_cutoff"] = (tracer.counts["bessel.max_order_cutoff"], "order")
    for layer in BUSY:
        metrics[f"{layer}.busy_s"] = (busy_s[layer] / n, "s/op")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / n, "s/op")
    metrics["check.max_abs_err"] = (max_abs_err, "abs")
    metrics["error_rate"] = (failed / n, "1")
    metrics["trace.spans"] = (len(tracer.spans) / n, "1/op")
    metrics["trace.overhead_s"] = (overhead_per_span() * len(tracer.spans) / n, "s/op")
    metrics["trace.op_mean_s"] = (sum(latencies) / n, "s/op")
    metrics["trace.op_p50_ms"] = (1e3 * _slot_figures(slot_ops)[1], "ms")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    threads = _cap_threads()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, operations

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    foldedxxz = _import_program()
    import numpy
    import scipy
    from foldedxxz import cli

    from checks import Gate
    from tracing import Tracer

    setup = _measure_setup(args.workload, args.seed)
    # taken before tracing rebinds the cached functions
    clear_caches = _cache_clearers(foldedxxz)
    gate = Gate(args.workload, args.seed)
    call, tracer = cli.main, None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        call = tracer.wrap(cli.main, "cli")
        tracer.enabled = False

    latencies, values, failed = [], 0, 0
    slot_ops = []  # (slot, seconds, values)
    busy, loop_start = 0.0, time.perf_counter()
    out_root = Path(tempfile.mkdtemp(prefix=".bench_out-", dir=ROOT))
    try:
        for k, op in enumerate(operations(args.workload, args.seed)):
            if busy >= args.seconds or time.perf_counter() - loop_start > LOOP_WALL_LIMIT_S:
                break
            out_dir = out_root / str(k)
            out_dir.mkdir()
            for clear in clear_caches:
                clear()
            if tracer:
                tracer.op, tracer.enabled = k, True
            rc, stdout, stderr, seconds = _run_op(call, op, out_dir)
            if tracer:
                tracer.enabled = False
            busy += seconds
            latencies.append(seconds)
            op_values = 0
            if rc == 0:
                try:
                    verdict = gate.check(op, out_dir, stdout)
                    op_values = verdict.values
                    problems = verdict.problems
                except Exception:  # unreadable or missing output
                    problems = [traceback.format_exc()]
            else:
                problems = [f"exit {rc}: {stderr.strip()[-2000:]}"]
            values += op_values
            slot_ops.append((op.slot, seconds, op_values))
            if problems:
                failed += 1
                print(f"bench: op {k} failed: {' '.join(op.argv)}\n  " + "\n  ".join(problems), file=sys.stderr)
            shutil.rmtree(out_dir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted = len(latencies)
    tail_ms, tail_pct = _tail(latencies)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "values": values,
        "values_per_busy_s": values / busy,
        "cycles": max(Counter(slot for slot, *_ in slot_ops if slot is not None).values(), default=0),
        "op_tail_percentile": tail_pct,
        "op_tail_samples": attempted,
        "error_rate": failed / attempted,
        "check_max_abs_err": gate.max_abs_err,
        "setup_samples_s": setup,
        "machine": _machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_cap": threads,
        **_provenance(),
    }
    if tracer:
        if tracer.missing:
            print(f"bench: not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
        metrics = _layer_metrics(tracer, latencies, slot_ops, failed, gate.max_abs_err)
        tracer.write(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.csv", record)
    else:
        values_per_s, op_p50_s = _slot_figures(slot_ops)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "values_per_s": (values_per_s, "1/s"),
            "op_p50_ms": (1e3 * op_p50_s, "ms"),
            "op_tail_ms": (1e3 * tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
