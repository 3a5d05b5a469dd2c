import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldedxxz.asymptotics import asym_macrosite, asym_sigma_z, asym_sigma_z_profile
from foldedxxz.bessel import bessel_weights, position_cdf
from foldedxxz.engine import (
    HOPPING,
    DiagonalObservable,
    EngineError,
    PauliString,
    RuleDomainError,
    _cone_window,
    _path_segment,
    _site_to_particle,
    bipartite_entropy,
    chain_segment,
    current_operator,
    current_profile,
    expect_diagonal,
    expect_operator,
    expect_pauli_string,
    folded_hops,
    guarded_background,
    magnetisation_profile,
    p_down_down,
    p_down_down_values,
    pauli,
    position_correlation,
    position_statistics,
    projector_pair_table,
    schmidt_count,
    schmidt_spectrum,
    sigma_z_element_rule,
    sigma_z_observable,
    sigma_z_time_derivative,
    sigma_z_values,
    spin_current,
    two_time_diagonal,
)
from foldedxxz.lattice import (
    DOWN,
    UP,
    FlipSpec,
    GuardError,
    LatticeError,
    SpinWindow,
    background_from_spins,
    neel_flip_background,
    period3_flip_background,
)

BG = period3_flip_background(48)


def test_identity_normalization():
    ident = DiagonalObservable(lambda w: 1.0, (0, 0))
    assert expect_diagonal(ident, 2.3, BG) == pytest.approx(1.0, abs=1e-12)
    assert expect_pauli_string(PauliString(()), 2.3, BG) == 1.0


def test_profile_at_time_zero_is_the_initial_string():
    sites = np.arange(-12, 13)
    vals = sigma_z_values(0.0, BG, sites)
    expect = BG.render(0, -12, 12).astype(float)
    np.testing.assert_allclose(vals, expect, atol=1e-14)


def test_profile_object():
    prof = magnetisation_profile(1.0, BG, np.arange(-5, 6))
    assert prof.observable == "sigma_z"
    assert prof.mode == "exact"
    assert len(prof.indices) == 11


def test_profile_serialization(tmp_path):
    import json

    prof = magnetisation_profile(0.8, BG, np.arange(-3, 4))
    prof.to_csv(tmp_path / "p.csv")
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 8
    idx, val = lines[1].split(",")
    assert int(idx) == -3 and abs(float(val)) <= 1.0
    prof.to_json(tmp_path / "p.json")
    payload = json.loads((tmp_path / "p.json").read_text())
    assert payload["observable"] == "sigma_z"
    assert payload["time"] == 0.8
    assert len(payload["rows"]) == 7


def test_down_up_down_site_is_frozen():
    # a site whose initial three-spin neighbourhood is down-up-down keeps
    # sigma^z = -1 at all times (odd sites of the even-up Neel preset)
    nb = neel_flip_background(48)
    assert list(nb.render(0, 3, 5)) == [DOWN, UP, DOWN]
    for t in (0.4, 2.0, 7.0):
        vals = sigma_z_values(t, nb, [3, 5, -5])
        np.testing.assert_allclose(vals, -1.0, atol=1e-14)


def test_sigma_z_rule_matches_rendering_exhaustively():
    for ell in list(range(1, 22)) + list(range(-22, -1)):
        try:
            for n in range(-30, 31):
                rule = sigma_z_element_rule(n, ell, BG)
                assert rule == float(BG.render(n, ell, ell)[0])
        except RuleDomainError:
            assert ell in (-1, 0)


def test_sigma_z_rule_flip_sites_raise():
    with pytest.raises(RuleDomainError):
        sigma_z_element_rule(0, 0, BG)
    with pytest.raises(RuleDomainError):
        sigma_z_element_rule(0, -1, BG)


def test_rule_right_side_down_up_down_constant():
    nb = neel_flip_background(48)
    # find a down-up-down pattern on the right
    for ell in range(2, 12):
        row = nb.render(0, ell, ell + 2)
        if list(row) == [DOWN, UP, DOWN]:
            assert all(sigma_z_element_rule(n, ell, nb) == -1.0 for n in range(-20, 21))
            return
    raise AssertionError("pattern not found")


def test_projector_table_covers_every_jammed_pattern():
    # every four-spin pattern occurring away from the impurity must appear
    # in the table with a vanishing product
    for side in ("right", "left"):
        for pattern in ("uudu", "uuud", "uuuu", "uduu", "udud", "duuu", "duud", "dudu"):
            p1, p2 = projector_pair_table(pattern, side)
            assert p1 * p2 == 0
    with pytest.raises(RuleDomainError):
        projector_pair_table("uddu", "right")


def test_projector_table_against_rendering():
    lookup = {BG.site_of(j, 0): j for j in range(BG.j_min, BG.j_max + 1)}
    n0 = 6
    for ell in range(2, 14):
        pattern = "".join("u" if s == UP else "d" for s in BG.render(0, ell, ell + 3))
        j = lookup.get(ell) or lookup.get(ell + 1) or lookup.get(ell - 1)
        for n in range(j + n0, j + n0 + 6):
            row = BG.render(n, ell, ell + 1)
            got = (int(0.5 * (1 - row[0])), int(0.5 * (1 - row[1])))
            assert got == projector_pair_table(pattern, "right")
        for n in range(j - n0 - 6, j - n0):
            row = BG.render(n, ell, ell + 1)
            got = (int(0.5 * (1 - row[0])), int(0.5 * (1 - row[1])))
            assert got == projector_pair_table(pattern, "left")


def test_p_down_down_at_time_zero():
    # exactly one at the impurity bonds, zero elsewhere
    bonds = np.arange(-10, 11)
    vals = p_down_down_values(0.0, BG, bonds)
    expect = np.zeros_like(vals)
    expect[bonds.tolist().index(-1)] = 1.0
    np.testing.assert_allclose(vals, expect, atol=1e-14)


def test_p_down_down_single_value_matches_profile():
    assert p_down_down(3, 1.7, BG) == pytest.approx(
        float(p_down_down_values(1.7, BG, [3])[0]), abs=1e-15
    )


def test_magnetisation_sum_rule_conserved():
    span = 3 * (bessel_weights(2.5).order_cutoff + 8)
    sites = np.arange(-span, span + 1)
    totals = [sigma_z_values(t, BG, sites).sum() for t in (0.0, 1.0, 2.5)]
    assert max(totals) - min(totals) < 1e-10


def test_staggered_sum_rule_conserved():
    span = 3 * (bessel_weights(2.0).order_cutoff + 8)
    sites = np.arange(-span, span + 1)
    stags = []
    for t in (0.0, 0.7, 2.0):
        vals = sigma_z_values(t, BG, sites)
        lp = np.arange(-(span // 2) + 2, span // 2 - 2)
        stags.append(0.5 * (vals[2 * lp + span] - vals[2 * lp - 1 + span]).sum())
    assert max(stags) - min(stags) < 1e-10


def test_transverse_one_point_functions_vanish():
    for ax in ("x", "y"):
        assert expect_pauli_string(pauli((2, ax)), 1.1, BG) == 0.0


def test_hermitian_strings_have_real_expectations():
    for s in (pauli((-2, "x"), (0, "x")), pauli((1, "y"), (3, "y")), pauli((0, "z"), (4, "z"))):
        val = expect_pauli_string(s, 0.9, BG)
        assert abs(val.imag) < 1e-12


def test_current_vanishes_at_t_zero():
    for ell in (-4, 0, 3):
        assert spin_current(ell, 0.0, BG) == 0.0


def test_current_continuity_equation():
    # d<sigma^z_l>/dt equals the finite difference of the profile in time
    ell, t, dt = 2, 0.8, 5e-5
    lhs = sigma_z_time_derivative(ell, t, BG)
    vp = sigma_z_values(t + dt, BG, [ell])[0]
    vm = sigma_z_values(t - dt, BG, [ell])[0]
    assert lhs == pytest.approx((vp - vm) / (2 * dt), abs=5e-6)


def test_two_time_factorises_at_t2_zero():
    d1, d2 = sigma_z_observable(2), sigma_z_observable(-3)
    va = two_time_diagonal(d1, 1.1, d2, 0.0, BG)
    fa = expect_diagonal(d1, 1.1, BG) * expect_diagonal(d2, 0.0, BG)
    assert va == pytest.approx(fa, abs=1e-12)


def test_two_time_equal_times_reduces_to_single_sum():
    d1, d2 = sigma_z_observable(2), sigma_z_observable(3)
    t = 0.9
    va = two_time_diagonal(d1, t, d2, t, BG)
    w = bessel_weights(t)
    n = w.order_cutoff
    block = BG.extended_to_particles(-n - 4, n + 4).render_block(-n, n, 2, 3)
    direct = float(np.dot(w.squares(), block[:, 0].astype(float) * block[:, 1]))
    assert va == pytest.approx(direct, abs=1e-12)


def test_two_time_identity_is_one():
    ident = DiagonalObservable(lambda w: 1.0, (0, 0))
    assert two_time_diagonal(ident, 1.3, ident, 0.4, BG) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        two_time_diagonal(ident, 0.3, ident, 0.9, BG)


def test_position_statistics_formulas():
    w = bessel_weights(1.4)
    for j in (-6, -1, 0, 2, 7):
        st_ = position_statistics(j, 1.4, BG)
        f = position_cdf(float(j), w)
        assert st_.prob_upper == pytest.approx(f, abs=1e-14)
        assert st_.prob_lower == pytest.approx(1 - f, abs=1e-14)
        assert st_.mean == pytest.approx(BG.c(j) + f, abs=1e-14)
        assert st_.variance == pytest.approx(f - f * f, abs=1e-14)


def _unshared_particles(bg, window):
    """Particles whose unshifted site cannot be reached by any shifted particle."""
    shifted_sites = {
        2 * bg.c(k) + 2 - bg.b(k) for k in range(bg.j_min, bg.j_max + 1)
    }
    return [j for j in window if 2 * bg.c(j) - bg.b(j) not in shifted_sites]


def test_position_statistics_against_indicator_observable():
    # the spin at particle j's unshifted site is an indicator of n >= j
    # whenever no shifted neighbour can occupy the same site
    t = 1.4
    js = _unshared_particles(BG, range(-8, 9))
    assert js, "no unshared particles found"
    for j in js:
        site = 2 * BG.c(j) - BG.b(j)
        ind = DiagonalObservable(lambda w, s=site: 0.5 * (1 + w.spin_at(s)), (site, site))
        assert position_statistics(j, t, BG).prob_lower == pytest.approx(
            expect_diagonal(ind, t, BG), abs=1e-10
        )


def test_position_correlation_properties():
    t = 2.2
    for m, n in ((0, 0), (2, 5), (-3, 1), (4, -4)):
        c = position_correlation(m, n, t, BG)
        assert c >= -1e-14
    stats = position_statistics(3, t, BG)
    assert position_correlation(3, 3, t, BG) == pytest.approx(stats.variance, abs=1e-14)


def test_position_variance_limits():
    # far outside the cone the position is sharp; at the center it is 1/4
    assert position_statistics(40, 1.0, BG).variance < 1e-12
    assert position_statistics(0, 80.0, BG).variance == pytest.approx(0.25, abs=1e-2)


def test_entropy_zero_at_t_zero():
    assert bipartite_entropy(0, 0.0, BG) == pytest.approx(0.0, abs=1e-12)
    assert bipartite_entropy(5, 0.0, BG) == pytest.approx(0.0, abs=1e-12)


def test_schmidt_spectrum_normalized():
    p = schmidt_spectrum(1, 2.0, BG)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(p) <= 1e-15)


def test_schmidt_count_bounded_by_three():
    for cut in range(-15, 16, 3):
        assert schmidt_count(cut, 3.0, BG) <= 3


def test_entropy_outside_cone_is_zero():
    w = bessel_weights(1.0)
    far = 3 * (w.order_cutoff + 10)
    assert bipartite_entropy(far, 1.0, BG) == pytest.approx(0.0, abs=1e-12)


def test_guard_error_without_cells():
    from foldedxxz.lattice import Background

    stripped = Background(BG.species, BG.j_min, BG.convention)
    with pytest.raises(GuardError):
        sigma_z_values(30.0, stripped, np.arange(-4, 5))


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.integers(min_value=-6, max_value=6),
)
def test_current_is_real_property(t, ell):
    val = expect_operator(current_operator(ell), round(t, 4), BG)
    assert abs(val.imag) < 1e-12


# -- open chains ------------------------------------------------------------

CHAIN = BG.on_chain(-7, 6)


def test_chain_segment_is_a_uniform_2j_path():
    seg = chain_segment(CHAIN)
    assert (seg.n_min, seg.n_max) == (-4, 4)
    np.testing.assert_array_equal(seg.hopping, np.full(8, HOPPING))
    assert seg.background.chain == CHAIN.chain


def test_chain_table_is_normalised_and_keeps_the_phase_form():
    _, w = guarded_background(CHAIN, 1.5)
    assert (w.n_lo, w.n_hi) == (-4, 4)
    assert w.tail_bound < 1e-12
    assert np.sum(w.squares()) == pytest.approx(1.0, abs=1e-12)
    phases = np.array([(-1j) ** n for n in range(w.n_lo, w.n_hi + 1)])
    np.testing.assert_allclose(w.amplitudes(), phases * w.values, atol=1e-15)


def test_chain_table_matches_segment_propagator():
    # expm of the derived tridiagonal segment, an independent route to the images
    seg = chain_segment(CHAIN)
    h = np.diag(seg.hopping, 1) + np.diag(seg.hopping, -1)
    start = np.zeros(seg.length)
    start[-seg.n_min] = 1.0
    for t in (0.5, 1.5, 5.0, 40.0):
        direct = scipy.linalg.expm(-1j * t * h) @ start
        assert np.max(np.abs(direct - guarded_background(CHAIN, t)[1].amplitudes())) < 1e-12


def test_path_segment_refuses_branching_and_nonuniform_hopping():
    keys = ["a", "b", "c", "d"]
    path = [{"b": HOPPING}, {"a": HOPPING, "c": HOPPING}, {"b": HOPPING, "d": HOPPING}, {"c": HOPPING}]
    k_min, k_max, hopping = _path_segment(keys, path, 1)
    assert (k_min, k_max) == (0, 3) and list(hopping) == [HOPPING] * 3
    branching = [dict(h) for h in path]
    branching[1]["d"] = HOPPING
    with pytest.raises(EngineError):
        _path_segment(keys, branching, 1)
    leaving = [dict(h) for h in path]
    leaving[2]["elsewhere"] = HOPPING
    with pytest.raises(EngineError):
        _path_segment(keys, leaving, 1)
    nonuniform = [dict(h) for h in path]
    nonuniform[1]["c"] = nonuniform[2]["b"] = 2 * HOPPING
    with pytest.raises(EngineError):
        _path_segment(keys, nonuniform, 1)
    # a row with a second down pair hops in four ways: not one segment
    row = np.array([UP if c == "u" else DOWN for c in "uudduudduu"], dtype=np.int8)
    hops = folded_hops(row)
    assert len(hops) == 4
    with pytest.raises(EngineError):
        _path_segment([row.tobytes()], [hops], 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda bg: expect_pauli_string(pauli((0, "x"), (2, "x")), 1.0, bg),
        lambda bg: spin_current(1, 1.0, bg),
        lambda bg: current_profile(1.0, bg, [0, 1]),
        lambda bg: sigma_z_time_derivative(1, 1.0, bg),
        lambda bg: two_time_diagonal(sigma_z_observable(2), 1.0, sigma_z_observable(3), 0.5, bg),
        lambda bg: position_statistics(1, 1.0, bg),
        lambda bg: position_correlation(1, 2, 1.0, bg),
        lambda bg: asym_sigma_z(3, 1.0, bg),
        lambda bg: asym_sigma_z_profile(1.0, bg, [2, 3]),
        lambda bg: asym_macrosite(2, 1.0, bg, "plus"),
    ],
    ids=[
        "offdiag_string", "spin_current", "current_profile", "sigma_z_time_derivative",
        "two_time_diagonal", "position_statistics", "position_correlation",
        "asym_sigma_z", "asym_sigma_z_profile", "asym_macrosite",
    ],
)
def test_entry_points_without_chain_table_refuse_chains(call):
    call(BG)  # the infinite-chain call works
    with pytest.raises(EngineError):
        call(CHAIN)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sigma_z_values(1.0, CHAIN, [-8, 0]),
        lambda: p_down_down_values(1.0, CHAIN, [6]),
        lambda: expect_diagonal(sigma_z_observable(7), 1.0, CHAIN),
        lambda: expect_pauli_string(pauli((6, "z"), (7, "z")), 1.0, CHAIN),
        lambda: schmidt_spectrum(6, 1.0, CHAIN),
        lambda: schmidt_spectrum(-8, 1.0, CHAIN),
    ],
    ids=["sigma_z", "p_down_down", "expect_diagonal", "z_string", "cut_right", "cut_left"],
)
def test_sites_and_cuts_outside_the_chain_raise_guard_error(call):
    with pytest.raises(GuardError):
        call()


def test_chain_diagonal_entry_points_share_the_table():
    t = 1.5
    sites = np.arange(-7, 7)
    sz = sigma_z_values(t, CHAIN, sites)
    for ell in (-7, -2, 0, 6):
        assert expect_diagonal(sigma_z_observable(ell), t, CHAIN) == pytest.approx(sz[ell + 7], abs=1e-14)
        assert expect_pauli_string(pauli((ell, "z")), t, CHAIN).real == pytest.approx(sz[ell + 7], abs=1e-14)
    pdd = p_down_down_values(t, CHAIN, sites[:-1])
    zz = np.array([expect_pauli_string(pauli((l, "z"), (l + 1, "z")), t, CHAIN).real for l in sites[:-1]])
    # P(down, down) = (1 - z_l - z_{l+1} + z_l z_{l+1}) / 4
    np.testing.assert_allclose(pdd, (1 - sz[:-1] - sz[1:] + zz) / 4, atol=1e-14)


def test_chain_rows_never_shared_with_the_parent_through_caches():
    parent = BG.extended_to_particles(-20, 20)
    chain = parent.on_chain(-7, 6)
    for first, second in ((parent, chain), (chain, parent)):
        _site_to_particle.cache_clear()
        lookups = {bg: _site_to_particle(bg) for bg in (first, second)}
        assert all(-7 <= s <= 6 for s in lookups[chain])
        assert min(lookups[parent]) < -7 and max(lookups[parent]) > 6


def test_chain_beyond_the_cone_reproduces_the_infinite_chain():
    t = 5.0
    wide = BG.on_chain(-240, 240)
    sites = np.arange(-60, 61)
    np.testing.assert_allclose(sigma_z_values(t, wide, sites), sigma_z_values(t, BG, sites), atol=1e-12, rtol=0)
    for cut in (-30, -3, 0, 2, 17):
        assert bipartite_entropy(cut, t, wide) == pytest.approx(bipartite_entropy(cut, t, BG), abs=1e-12)


def test_chain_calls_leave_infinite_results_bit_identical():
    t = 1.5
    sites = np.arange(-7, 7)
    before = (sigma_z_values(t, BG, sites), schmidt_spectrum(0, t, BG), p_down_down_values(t, BG, sites))
    sigma_z_values(t, CHAIN, sites), schmidt_spectrum(0, t, CHAIN), p_down_down_values(t, CHAIN, sites[:-1])
    after = (sigma_z_values(t, BG, sites), schmidt_spectrum(0, t, BG), p_down_down_values(t, BG, sites))
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


# -- prefix sums and breakpoints against the rendered block -------------------
#
# The engine never renders the whole amplitude table; these properties hold
# every entry point to the brute-force form that does: all rows of
# ``render_block`` weighted by the table, on random single-flip backgrounds.

EXACT = 1e-13


@st.composite
def flip_states(draw, chains=True):
    """(background, Jt, support) for a random jammed window with a single flip.

    The window tiles a random jammed cell (so edge extension works) with up
    to four down spins near the flip turned up (an inline window), is
    flipped under either convention, and is optionally cut to an open chain.
    """
    cell = draw(
        st.text(alphabet="ud", min_size=2, max_size=5).filter(
            lambda c: "d" in c and "dd" not in c + c[0]
        )
    )
    reps = 40 // len(cell) + 2
    first = -reps * len(cell)
    text = list(cell * (2 * reps + 1))
    for k in draw(st.lists(st.integers(-8, 8), max_size=4)):
        text[k - first] = "u"  # removing down spins keeps the window jammed
    flips = [
        (site, conv)
        for site in range(-4, 5)
        if text[site - first] == "u"
        for conv, nb in (("left", site - 1), ("right", site + 1))
        if text[nb - first] == "d"
    ]
    assume(flips)
    site, conv = draw(st.sampled_from(flips))
    window = SpinWindow.from_string("".join(text), first)
    try:
        bg = background_from_spins(window, FlipSpec(site), conv, cell, cell)
    except LatticeError:
        assume(False)
    if chains and draw(st.booleans()):
        bg = bg.on_chain(draw(st.integers(-9, -1)), draw(st.integers(0, 9)))
        try:
            chain_segment(bg)
        except EngineError:
            assume(False)
    lo, hi = bg.chain if bg.chain is not None else (-14, 14)
    a = draw(st.integers(lo, hi))
    support = (a, draw(st.integers(a, min(hi, a + 3))))
    return bg, round(draw(st.floats(0.0, 30.0)), 3), support


def _pattern_value(win):
    """An unrelated value for each spin pattern on up to four sites."""
    table = (0.3, -1.2, 2.0, 0.7, -0.4, 1.1, 0.05, -2.2, 1.7, -0.9, 0.6, -1.5, 0.2, 2.4, -0.1, 0.8)
    return table[sum((1 + s) // 2 << k for k, s in enumerate(win.spins))]


@settings(max_examples=60, deadline=None)
@given(flip_states())
def test_diagonal_paths_match_rendered_block(state):
    bg, t, (a, b) = state
    lo, hi = bg.chain if bg.chain is not None else (-14, 14)
    bgx, w = guarded_background(bg, t)
    rows = bgx.extended_to_sites(lo, hi).render_block(w.n_lo, w.n_hi, lo, hi)
    sq, spins = w.squares(), rows.astype(float)
    sites = np.arange(lo, hi + 1)
    np.testing.assert_allclose(sigma_z_values(t, bg, sites), sq @ spins, atol=EXACT, rtol=0)
    if hi > lo:
        down = 0.5 * (1.0 - spins)
        pdd = p_down_down_values(t, bg, sites[:-1])
        np.testing.assert_allclose(pdd, sq @ (down[:, :-1] * down[:, 1:]), atol=EXACT, rtol=0)
    obs = DiagonalObservable(_pattern_value, (a, b))
    direct = [
        obs.evaluator(SpinWindow(a, tuple(int(s) for s in row)))
        for row in rows[:, a - lo : b - lo + 1]
    ]
    assert abs(expect_diagonal(obs, t, bg) - sq @ direct) < EXACT
    string = pauli(*{(a, "z"), (b, "z")})
    zs = np.prod(spins[:, [s - lo for s in string.sites]], axis=1)
    assert abs(expect_pauli_string(string, t, bg) - sq @ zs) < EXACT


@settings(max_examples=30, deadline=None)
@given(flip_states(chains=False), st.floats(0.0, 1.0))
def test_two_time_diagonal_matches_rendered_block(state, ratio):
    bg, t1, (a, b) = state
    t2 = round(t1 * ratio, 3)
    d1 = DiagonalObservable(_pattern_value, (a, b))
    d2 = sigma_z_observable(b)
    w1, w2, w12 = bessel_weights(t1), bessel_weights(t2), bessel_weights(t1 - t2)
    need = max(w1.order_cutoff, w2.order_cutoff) + 4
    bgx = bg.extended_to_particles(-need, need).extended_to_sites(a, b)

    def eigenvalues(obs, w):
        lo, hi = obs.support
        rows = bgx.render_block(w.n_lo, w.n_hi, lo, hi)
        return np.array([obs.evaluator(SpinWindow(lo, tuple(int(s) for s in row))) for row in rows])

    kernel = np.array(
        [[w12.j(m - n) for n in range(w2.n_lo, w2.n_hi + 1)] for m in range(w1.n_lo, w1.n_hi + 1)]
    )
    direct = (w1.values * eigenvalues(d1, w1)) @ kernel @ (w2.values * eigenvalues(d2, w2))
    assert abs(two_time_diagonal(d1, t1, d2, t2, bg) - direct) < EXACT


@settings(max_examples=40, deadline=None)
@given(
    flip_states(chains=False),
    st.sampled_from("xy"),
    st.sampled_from(["", "x", "y", "z"]),
    st.sampled_from("xyz"),
    st.integers(-6, 4),
)
def test_off_diagonal_strings_match_rendered_block(state, first, middle, last, start):
    # x/y on sites l and l + 2 move the impurity by one particle
    bg, t, _ = state
    string = pauli(*((start + k, ax) for k, ax in enumerate((first, middle, last)) if ax))
    bgx, w = guarded_background(bg, t)
    lo, hi = _cone_window(bgx, w)
    rows = bgx.render_block(w.n_lo, w.n_hi, lo, hi)
    index = {row.tobytes(): k for k, row in enumerate(rows)}
    amps = w.amplitudes()
    direct = 0.0
    for k, row in enumerate(rows):
        ket, coeff = row.copy(), 1.0 + 0.0j
        for site, ax in string.factors:
            s = int(ket[site - lo])
            coeff *= {"x": 1.0, "y": 1j * s, "z": s}[ax]
            if ax != "z":
                ket[site - lo] = -s
        if ket.tobytes() in index:
            direct += np.conj(amps[index[ket.tobytes()]]) * amps[k] * coeff
    assert abs(expect_pauli_string(string, t, bg) - direct) < EXACT


@settings(max_examples=60, deadline=None)
@given(flip_states(), st.integers(-12, 12))
def test_schmidt_spectrum_matches_dense_svd(state, cut):
    bg, t, _ = state
    bgx, w = guarded_background(bg, t)
    lo, hi = bg.chain if bg.chain is not None else _cone_window(bgx, w)
    cut = min(max(cut, lo), hi - 1)
    rows = bgx.render_block(w.n_lo, w.n_hi, lo, hi)
    _, left = np.unique(rows[:, : cut - lo + 1], axis=0, return_inverse=True)
    _, right = np.unique(rows[:, cut - lo + 1 :], axis=0, return_inverse=True)
    dense = np.zeros((left.max() + 1, right.max() + 1), dtype=complex)
    dense[left.ravel(), right.ravel()] = w.amplitudes()
    direct = np.linalg.svd(dense, compute_uv=False) ** 2
    got = schmidt_spectrum(cut, t, bg)
    size = max(len(got), len(direct))
    np.testing.assert_allclose(
        np.pad(got, (0, size - len(got))), np.pad(direct, (0, size - len(direct))), atol=EXACT, rtol=0
    )
