import json

import numpy as np
import pytest

from foldedxxz.cli import main


def run(args):
    return main(args)


def test_profile_csv_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["profile", "--background", "fig2a", "--times", "0.5,1.5", "--obs", "sz"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    f1 = (out1 / "profile_sz.csv").read_bytes()
    f2 = (out2 / "profile_sz.csv").read_bytes()
    assert f1 == f2
    header, first = f1.decode().splitlines()[:2]
    assert header == "time,site,value"
    assert len(first.split(",")) == 3


def test_profile_json_format(tmp_path):
    assert run(
        ["profile", "--times", "1.0", "--format", "json", "--out", str(tmp_path)]
    ) == 0
    payload = json.loads((tmp_path / "profile_sz.json").read_text())
    assert payload["columns"] == ["time", "site", "value"]
    assert payload["metadata"]["background"] == "fig2a"
    assert len(payload["rows"]) > 10


def test_profile_asym_observable(tmp_path):
    assert run(
        ["profile", "--times", "20", "--obs", "sz-asym", "--sites=-30:30", "--out", str(tmp_path)]
    ) == 0
    text = (tmp_path / "profile_sz_asym.csv").read_text().splitlines()
    assert len(text) > 40


def test_inline_background_with_marker(tmp_path):
    args = [
        "profile", "--times", "0.3", "--sites=-4:4",
        "--background", "uud" * 9 + "uUd" + "uud" * 9,
        "--first-site", "-30",
        "--pad", "uud,uud",
        "--out", str(tmp_path),
    ]
    assert run(args) == 0


def test_inline_background_without_pad_hits_guard(tmp_path):
    args = [
        "profile", "--times", "0.3", "--sites=-4:4",
        "--background", "uud" * 9 + "uUd" + "uud" * 9,
        "--first-site", "-30",
        "--out", str(tmp_path),
    ]
    assert run(args) == 3


def test_inline_background_with_mismatched_pad_exits_2(tmp_path, capsys):
    # the window is period 3, the declared cells are Neel
    args = [
        "profile", "--times", "0.3", "--sites=-4:4",
        "--background", "duu" * 9, "--flip-site", "14",
        "--pad", "ud,ud",
        "--out", str(tmp_path),
    ]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "tile 'uu'" in err and "declared cell 'ud'" in err


@pytest.mark.parametrize(
    "background",
    [
        ["--background", "fig2a"],
        ["--background", "fig2b"],
        ["--background", "fig2c"],
        ["--background", "weak", "--m", "3", "--M", "2"],
        ["--background", "uud" * 9 + "uUd" + "uud" * 9, "--first-site", "-30", "--pad", "uud,uud"],
    ],
    ids=["fig2a", "fig2b", "fig2c", "weak", "inline-pad"],
)
def test_inline_pad_background_is_extended_once_per_command(background, tmp_path, monkeypatch):
    from foldedxxz.lattice import Background

    grown, real = [], Background.extended_to_particles

    def spy(self, j_lo, j_hi):
        out = real(self, j_lo, j_hi)
        if out is not self:
            grown.append((j_lo, j_hi))
        return out

    monkeypatch.setattr(Background, "extended_to_particles", spy)
    args = ["current", "--times", "0.3,0.8", "--sites=-6:6", *background, "--out", str(tmp_path)]
    assert run(args) == 0
    assert len(grown) == 1


def test_time_beyond_the_bessel_budget_exits_2(tmp_path, monkeypatch, capsys):
    from foldedxxz import bessel

    def no_table(x, n_max):
        raise AssertionError(f"a table of {n_max} orders was computed")

    monkeypatch.setattr(bessel, "_miller_table", no_table)
    for command in ("profile", "jamming", "entropy"):
        assert run([command, "--times", "1,1e9", "--out", str(tmp_path)]) == 2
        assert "budget" in capsys.readouterr().err


def test_jamming_with_fit(tmp_path, capsys):
    assert run(
        ["jamming", "--times", "25", "--fit-envelope", "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "envelope fit" in out
    header = (tmp_path / "jamming.csv").read_text().splitlines()[0]
    assert header == "time,bond,ray,p_down_down,rescaled"


def test_current_command(tmp_path):
    assert run(
        ["current", "--times", "0.8", "--sites=-6:6", "--out", str(tmp_path)]
    ) == 0
    assert (tmp_path / "current.csv").exists()


def test_fluct_command(tmp_path):
    assert run(
        ["fluct", "--times", "1.0", "--particles=-8:8", "--out", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "fluctuations.csv").read_text().splitlines()
    assert lines[0].startswith("time,particle,anchor,prob_lower")
    assert len(lines) == 18


def test_entropy_command(tmp_path):
    assert run(
        ["entropy", "--times", "1.5", "--sites=-10:10", "--out", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "entropy.csv").read_text().splitlines()
    counts = [int(row.split(",")[3]) for row in lines[1:]]
    assert max(counts) <= 3


def test_entropy_command_reads_one_spectrum_per_cut_at_tol(tmp_path, monkeypatch):
    import foldedxxz.cli as cli

    calls, real = [], cli.schmidt_spectrum

    def spy(cut, t, bg, tol=1e-12):
        p = real(cut, t, bg, tol)
        calls.append((cut, tol, int(np.sum(p > 1e-12))))
        return p

    monkeypatch.setattr(cli, "schmidt_spectrum", spy)
    assert run(
        ["entropy", "--times", "1.5", "--sites=-3:3", "--tol", "1e-9", "--out", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "entropy.csv").read_text().splitlines()
    counts = [int(row.split(",")[3]) for row in lines[1:]]
    assert calls == [(c, 1e-9, n) for c, n in zip(range(-3, 4), counts)]


def test_entmap_command(tmp_path):
    assert run(
        ["entmap", "--m", "4", "--M", "2", "--times", "1.5", "--sites=-6:14", "--out", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "entmap.csv").read_text().splitlines()
    assert lines[0] == "time,site_i,site_j,eof,rescaled"
    assert len(lines) > 3


def test_entmap_requires_domain_flags(tmp_path):
    assert run(["entmap", "--times", "1.5", "--out", str(tmp_path)]) == 2


def test_duality_command(tmp_path, capsys):
    assert run(
        ["duality", "--delta", "3,9", "--times", "0.6", "--n-sites", "12", "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "monotone=True" in out
    payload = json.loads((tmp_path / "duality_t0p6.json").read_text())
    assert payload["monotone"] is True


def test_duality_guard_exit_code(tmp_path):
    assert run(
        ["duality", "--delta", "4", "--times", "9", "--n-sites", "12", "--out", str(tmp_path)]
    ) == 3


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("background=fig2b\ntimes=0.5\nsites=-6:6\n")
    assert run(["profile", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "profile_sz.csv").read_text().splitlines()
    assert len(lines) == 14


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this is not key value\n")
    assert run(["profile", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert run(["profile", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_bad_times_rejected(tmp_path):
    assert run(["profile", "--times", "1.0,-2", "--out", str(tmp_path)]) == 2
    assert run(["profile", "--times", "abc", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1.0,inf"])
def test_non_finite_times_rejected(tmp_path, capsys, text):
    assert run(["profile", "--background", "fig2a", f"--times={text}", "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_bad_background_rejected(tmp_path):
    assert run(
        ["profile", "--times", "1", "--background", "uuddud", "--flip-site", "2", "--out", str(tmp_path)]
    ) == 2


def test_verify_subset(capsys):
    assert run(["verify", "--checks", "bessel-normalization,bessel-symmetry"]) == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out
