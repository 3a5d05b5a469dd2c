"""Experiment runner: deterministic CSV/JSON emitters for every observable.

Background grammar
------------------
``--background`` accepts a preset name or an inline spin string:

* presets: ``fig2a`` (period-3 up-up-down with the canonical flip),
  ``fig2b`` (Neel with one up spin flipped down), ``fig2c`` (Neel plus a
  one-macrosite domain of both species, flipped; equals ``weak`` with
  ``M = 1``), ``weak`` (Neel plus an ``M``-macrosite domain starting at
  macrosite ``m``; uses ``--m``/``--M``).
* inline: a string over ``u``/``d`` (or ``1``/``0``) giving the jammed
  state *before* the flip, anchored with ``--first-site`` (default 0) and
  flipped at ``--flip-site``.  A capital ``U`` may mark the flipped spin
  instead of ``--flip-site``.  ``--pad LEFT,RIGHT`` declares repeating
  edge cells (spin strings) so windows can be extended to any light cone;
  each must match the window edge up to a cyclic rotation (else exit 2).

All sites are reported in canonical coordinates: the down pair created by
the flip occupies sites (-1, 0).

Exit codes: 0 success, 1 failed verification checks, 2 configuration
errors, 3 light-cone guard violations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import asym_sigma_z_profile, fit_lqjs_envelope
from .bessel import bessel_weights
from .engine import (
    SCHMIDT_THRESHOLD,
    current_profile,
    guarded_background,
    p_down_down_values,
    position_correlation,
    position_statistics,
    schmidt_spectrum,
    sigma_z_values,
    spectrum_entropy,
)
from .lattice import (
    FlipSpec,
    GuardError,
    LatticeError,
    SpinWindow,
    background_from_spins,
    neel_flip_background,
    period3_flip_background,
    weak_flip_background,
)
from .oracle import LightConeEscapeError, TooLargeError, duality_compare
from .verify import run_checks
from .weak import WeakConfig, entanglement_map


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"bad time list {text!r}") from exc
    if not times or not all(math.isfinite(t) and t >= 0 for t in times):
        raise ConfigError("times must be a non-empty list of finite non-negative reals")
    return times


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"bad {what} range {text!r}, expected LO:HI") from exc
    if lo > hi:
        raise ConfigError(f"empty {what} range {text!r}")
    return lo, hi


def _resolve_background(args, times):
    """The requested background, extended once to the guard of ``max(times)``.

    This is the one sizing step of a command.  Extension errors are not
    configuration errors: a window without edge cells exits 3, an edge that
    does not match its declared cell exits 2.
    """
    bg, _ = guarded_background(_build_background(args), max(times), args.tol)
    return bg


def _build_background(args):
    """The core of the requested background, before any extension."""
    name = args.background
    if name == "fig2a":
        return period3_flip_background(0)
    if name == "fig2b":
        return neel_flip_background(0)
    if name == "fig2c":
        return weak_flip_background(args.m or 5, 1, 0)
    if name == "weak":
        if args.m is None or args.M is None:
            raise ConfigError("the weak background needs --m and --M")
        return weak_flip_background(args.m, args.M, 0)
    # inline spin string
    text = name
    flip_site = args.flip_site
    if "U" in text:
        if text.count("U") != 1:
            raise ConfigError("exactly one 'U' marker allowed")
        flip_site = args.first_site + text.index("U")
        text = text.replace("U", "u")
    if flip_site is None:
        raise ConfigError("inline backgrounds need --flip-site or a 'U' marker")
    left = right = None
    if args.pad:
        parts = args.pad.split(",")
        if len(parts) != 2:
            raise ConfigError("--pad expects LEFT,RIGHT spin cells")
        left, right = parts[0] or None, parts[1] or None
    try:
        window = SpinWindow.from_string(text, args.first_site)
        return background_from_spins(
            window, FlipSpec(flip_site), left_cell=left, right_cell=right
        )
    except LatticeError as exc:
        raise ConfigError(f"invalid background: {exc}") from exc


def _default_sites(args, times) -> np.ndarray:
    if args.sites:
        lo, hi = _parse_range(args.sites, "site")
        return np.arange(lo, hi + 1)
    w = bessel_weights(max(times))
    span = int(1.6 * (w.order_cutoff + 8))
    return np.arange(-span, span + 1)


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _emit(path_base: Path, header, rows, fmt: str, meta: dict) -> list[str]:
    if fmt == "csv":
        path = path_base.with_suffix(".csv")
        _write_rows(path, header, rows)
    else:
        path = path_base.with_suffix(".json")
        payload = {
            "metadata": meta,
            "columns": header,
            "rows": [
                [float(v) if isinstance(v, float) else v for v in row] for row in rows
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    return [str(path)]


def _cmd_profile(args) -> int:
    times = _parse_times(args.times)
    bg = _resolve_background(args, times)
    sites = _default_sites(args, times)
    obs = args.obs.split(",")
    written = []
    for ob in obs:
        rows = []
        for t in times:
            if ob == "sz":
                vals = sigma_z_values(t, bg, sites, args.tol)
                rows += [(t, int(s), float(v)) for s, v in zip(sites, vals)]
            elif ob == "sz-asym":
                scls, vals = asym_sigma_z_profile(t, bg, sites)
                rows += [(t, int(s), float(v)) for s, v in zip(scls, vals)]
            else:
                raise ConfigError(f"unknown observable {ob!r} (use sz, sz-asym)")
        written += _emit(
            Path(args.out) / f"profile_{ob.replace('-', '_')}",
            ["time", "site", "value"],
            rows,
            args.format,
            {"observable": ob, "background": args.background, "times": times},
        )
    print("\n".join(written))
    return 0


def _cmd_jamming(args) -> int:
    times = _parse_times(args.times)
    bg = _resolve_background(args, times)
    written, rows = [], []
    fit_rays, fit_vals = [], []
    for t in times:
        if args.sites:
            lo, hi = _parse_range(args.sites, "bond")
            bonds = np.arange(lo, hi + 1)
        else:
            span = int(args.rays * t) if t > 0 else 20
            bonds = np.arange(-span, span + 1)
        vals = p_down_down_values(t, bg, bonds, args.tol)
        for b, v in zip(bonds, vals):
            ray = b / t if t > 0 else 0.0
            rows.append((t, int(b), float(ray), float(v), float(t * v)))
            fit_rays.append(ray)
            fit_vals.append(t * v)
    meta = {"background": args.background, "times": times}
    if args.fit_envelope:
        a, v_edge = fit_lqjs_envelope(np.array(fit_rays), np.array(fit_vals))
        meta["envelope_amplitude"] = a
        meta["envelope_velocity"] = v_edge
        print(f"envelope fit: amplitude={_fmt(a)} edge_velocity={_fmt(v_edge)}")
    written += _emit(
        Path(args.out) / "jamming",
        ["time", "bond", "ray", "p_down_down", "rescaled"],
        rows,
        args.format,
        meta,
    )
    print("\n".join(written))
    return 0


def _cmd_current(args) -> int:
    times = _parse_times(args.times)
    bg = _resolve_background(args, times)
    rows = []
    for t in times:
        if args.sites:
            lo, hi = _parse_range(args.sites, "site")
            sites = np.arange(lo, hi + 1)
        else:
            span = int(args.rays * t) if t > 0 else 20
            sites = np.arange(-span, span + 1)
        prof = current_profile(t, bg, sites, args.tol)
        rows += [(t, int(s), float(v)) for s, v in zip(prof.indices, prof.values)]
    written = _emit(
        Path(args.out) / "current",
        ["time", "site", "value"],
        rows,
        args.format,
        {"background": args.background, "times": times},
    )
    print("\n".join(written))
    return 0


def _cmd_fluct(args) -> int:
    times = _parse_times(args.times)
    bg = _resolve_background(args, times)
    if args.particles:
        lo, hi = _parse_range(args.particles, "particle")
    else:
        w = bessel_weights(max(times))
        lo, hi = -w.order_cutoff, w.order_cutoff
    bgx = bg.extended_to_particles(lo - 2, hi + 2)
    rows = []
    for t in times:
        for j in range(lo, hi + 1):
            st = position_statistics(j, t, bgx, args.tol)
            corr = position_correlation(0, j, t, bgx, args.tol)
            rows.append(
                (t, j, st.anchor, float(st.prob_lower), float(st.prob_upper),
                 float(st.mean), float(st.variance), float(corr))
            )
    written = _emit(
        Path(args.out) / "fluctuations",
        ["time", "particle", "anchor", "prob_lower", "prob_upper", "mean", "variance", "corr_with_0"],
        rows,
        args.format,
        {"background": args.background, "times": times},
    )
    print("\n".join(written))
    return 0


def _cmd_entropy(args) -> int:
    times = _parse_times(args.times)
    bg = _resolve_background(args, times)
    rows = []
    for t in times:
        if args.sites:
            lo, hi = _parse_range(args.sites, "cut")
            cuts = range(lo, hi + 1)
        else:
            span = int(1.5 * bessel_weights(t).order_cutoff) + 8
            cuts = range(-span, span + 1)
        for c in cuts:
            p = schmidt_spectrum(c, t, bg, tol=args.tol)
            rows.append((t, int(c), spectrum_entropy(p), int(np.sum(p > SCHMIDT_THRESHOLD))))
    written = _emit(
        Path(args.out) / "entropy",
        ["time", "cut", "entropy_bits", "schmidt_count"],
        rows,
        args.format,
        {"background": args.background, "times": times},
    )
    print("\n".join(written))
    return 0


def _cmd_entmap(args) -> int:
    times = _parse_times(args.times)
    if args.m is None or args.M is None:
        raise ConfigError("entmap needs --m and --M")
    if args.sites:
        lo, hi = _parse_range(args.sites, "site")
    else:
        span = int(4.5 * max(times)) + 8
        lo, hi = -span, 2 * args.m + 2 * args.M + span
    sites = list(range(lo, hi + 1))
    rows = []
    for t in times:
        cfg = WeakConfig(args.m, args.M, t, args.tol)
        raw = entanglement_map(cfg, sites)
        factor = (t * t / math.log2(t)) if t > 1.0 else 1.0
        for ii in range(len(sites)):
            for jj in range(ii + 1, len(sites)):
                if raw[ii, jj] == 0.0 and not args.keep_zeros:
                    continue
                rows.append(
                    (t, sites[ii], sites[jj], float(raw[ii, jj]), float(raw[ii, jj] * factor))
                )
    written = _emit(
        Path(args.out) / "entmap",
        ["time", "site_i", "site_j", "eof", "rescaled"],
        rows,
        args.format,
        {"m": args.m, "M": args.M, "times": times},
    )
    print("\n".join(written))
    return 0


def _cmd_duality(args) -> int:
    times = _parse_times(args.times)
    try:
        deltas = [float(v) for v in args.delta.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad anisotropy list {args.delta!r}") from exc
    written = []
    for t in times:
        rep = duality_compare(deltas, args.n_sites, t)
        stem = f"duality_t{t:g}".replace(".", "p")
        json_path = Path(args.out) / f"{stem}.json"
        csv_path = Path(args.out) / f"{stem}.csv"
        rep.to_json(json_path)
        rows = []
        for d in deltas:
            dev = rep.deviations[float(d)]
            for bond, (fv, xv, dv) in enumerate(
                zip(rep.folded_profile, rep.xxz_bond_profiles[float(d)], dev)
            ):
                rows.append((float(d), bond, float(fv), float(xv), float(dv)))
        _write_rows(csv_path, ["delta", "bond", "folded_sz", "xxz_zz", "deviation"], rows)
        written += [str(json_path), str(csv_path)]
        print(
            f"t={_fmt(t)}: max interior deviation "
            + " ".join(f"delta={d}: {_fmt(rep.max_interior_deviation[float(d)])}" for d in deltas)
            + f"  monotone={rep.monotone}"
        )
    print("\n".join(written))
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(args.checks.split(",") if args.checks else None)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}  ({r.seconds:.2f}s)")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into key=value flags (command line wins)."""
    if "--config" not in argv:
        return argv
    k = argv.index("--config")
    if k + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    path = Path(argv[k + 1])
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    injected = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}, expected key=value")
        key, value = line.split("=", 1)
        # single-token form so values starting with '-' survive argparse
        injected.append(f"--{key.strip()}={value.strip()}")
    return argv[:k] + injected + argv[k + 2 :]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldedxxz",
        description="Exact post-flip dynamics of jammed folded-XXZ backgrounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, background=True):
        if background:
            p.add_argument("--background", default="fig2a")
            p.add_argument("--flip-site", type=int, default=None)
            p.add_argument("--first-site", type=int, default=0)
            p.add_argument("--pad", default=None)
            p.add_argument("--m", type=int, default=None)
            p.add_argument("--M", type=int, default=None)
        p.add_argument("--times", default="1.0")
        p.add_argument("--out", default=".")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--config", default=None, help="key=value file mirroring flags")

    p = sub.add_parser("profile", help="site-resolved magnetisation profiles")
    common(p)
    p.add_argument("--obs", default="sz", help="comma list: sz, sz-asym")
    p.add_argument("--sites", default=None, help="LO:HI site window")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("jamming", help="adjacent down-down probability profile")
    common(p)
    p.add_argument("--sites", default=None, help="LO:HI bond window")
    p.add_argument("--rays", type=float, default=5.7, help="|site/t| window when --sites absent")
    p.add_argument("--fit-envelope", action="store_true")
    p.set_defaults(func=_cmd_jamming)

    p = sub.add_parser("current", help="magnetisation bond current profile")
    common(p)
    p.add_argument("--sites", default=None, help="LO:HI site window")
    p.add_argument("--rays", type=float, default=5.0)
    p.set_defaults(func=_cmd_current)

    p = sub.add_parser("fluct", help="particle position statistics")
    common(p)
    p.add_argument("--particles", default=None, help="LO:HI particle window")
    p.set_defaults(func=_cmd_fluct)

    p = sub.add_parser("entropy", help="bipartite entanglement entropy profile")
    common(p)
    p.add_argument("--sites", default=None, help="LO:HI cut window")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("entmap", help="pairwise entanglement-of-formation map")
    common(p, background=False)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--sites", default=None, help="LO:HI site window")
    p.add_argument("--keep-zeros", action="store_true")
    p.set_defaults(func=_cmd_entmap)

    p = sub.add_parser("duality", help="folded vs XXZ nearest-neighbour comparison")
    common(p, background=False)
    p.add_argument("--delta", default="4,8,16")
    p.add_argument("--n-sites", type=int, default=16)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--checks", default=None, help="comma list of check names")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        if getattr(args, "out", None):
            Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuardError, LightConeEscapeError) as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except (TooLargeError, LatticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
