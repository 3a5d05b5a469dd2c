import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldedxxz.lattice import (
    DOWN,
    UP,
    Background,
    FlipIneffectiveError,
    FlipSpec,
    GuardError,
    ImpurityBasisState,
    IndexOutOfRangeError,
    LatticeError,
    NotJammedError,
    SpinWindow,
    background_from_postflip,
    background_from_spins,
    coarse_xi,
    macrosite,
    neel_flip_background,
    period3_flip_background,
    periodic_flip_background,
    render,
    weak_flip_background,
    x_of_ell,
)


def down_runs(arr):
    runs, k = [], 0
    while k < len(arr):
        if arr[k] == DOWN:
            s = k
            while k + 1 < len(arr) and arr[k + 1] == DOWN:
                k += 1
            runs.append((s, k))
        k += 1
    return [(a, b) for a, b in runs if b > a]


# -- string-era references ----------------------------------------------------
#
# The parse and the extension as they were before backgrounds were built
# from up-site arrays: per-spin run search, per-particle positions, and
# extension by rendering the window to a u/d string, tiling the edge
# substring and reparsing.  The library must agree with them wherever a
# declared cell matches its window edge.


def reference_postflip(window, convention="left", left_cell=None, right_cell=None):
    spins = list(window.spins)
    runs = down_runs(spins)
    if len(runs) != 1:
        raise NotJammedError("runs")
    a, b = runs[0]
    if b - a + 1 > 3 or a == 0 or b == len(spins) - 1:
        raise NotJammedError("run")
    anchor = window.first_site + (a + 1 if b - a == 2 and convention == "left" else b)
    sites = [window.first_site - anchor + k for k, s in enumerate(spins) if s == UP]
    n_left = sum(s < -1 for s in sites)
    if len(sites) < 6 or n_left < 3 or len(sites) - n_left < 3:
        raise NotJammedError("particles")
    species = tuple(2 * ((s + 1) // 2) - s for s in sites)
    bg = Background(species, 1 - n_left, convention, left_cell, right_cell)
    if [bg.site_of(j, 0) for j in range(bg.j_min, bg.j_max + 1)] != sites:
        raise NotJammedError("recurrence")
    return bg


def reference_spins(window, flip, convention="auto", left_cell=None, right_cell=None):
    spins = list(window.spins)
    if down_runs(spins):
        raise NotJammedError("pre-flip")
    k = flip.site - window.first_site
    if not 1 <= k <= len(spins) - 2:
        raise IndexOutOfRangeError("flip site")
    down_left, down_right = spins[k - 1] == DOWN, spins[k + 1] == DOWN
    if spins[k] != UP or not (down_left or down_right):
        raise FlipIneffectiveError("flip")
    if convention == "auto":
        convention = "left" if down_left else "right"
    elif (convention == "left" and not down_left) or (convention == "right" and not down_right):
        raise FlipIneffectiveError("convention")
    spins[k] = DOWN
    flipped = SpinWindow(window.first_site, tuple(spins))
    return reference_postflip(flipped, convention, left_cell, right_cell)


def reference_extension(bg, j_lo, j_hi):
    if j_lo >= bg.j_min and j_hi <= bg.j_max:
        return bg
    if (j_lo < bg.j_min and bg.left_cell is None) or (j_hi > bg.j_max and bg.right_cell is None):
        raise GuardError("cells")
    text = bg.infinite.render_window(0, bg.site_min, bg.site_max).to_string()
    first = bg.site_min
    if j_lo < bg.j_min:
        tile = text[: len(bg.left_cell)]
        reps = (bg.j_min - j_lo) // tile.count("u") + 2
        text, first = tile * reps + text, first - reps * len(tile)
    if j_hi > bg.j_max:
        tile = text[-len(bg.right_cell) :]
        text += tile * ((j_hi - bg.j_max) // tile.count("u") + 2)
    window = SpinWindow.from_string(text, first)
    out = reference_postflip(window, bg.convention, bg.left_cell, bg.right_cell)
    return out if bg.chain is None else out.on_chain(*bg.chain)


def reference_periodic_flip_background(cell, flip_site, particle_extent, convention="auto"):
    """The preset as a string: the cell tiled wide enough, then parsed."""
    p = len(cell)
    ups_per_cell = cell.count("u")
    if ups_per_cell == 0:
        raise NotJammedError("cell carries no particles")
    reps = (particle_extent + 8) // ups_per_cell + 3
    first = -reps * p  # multiple of p, so site s maps to cell[s mod p]
    window = SpinWindow.from_string(cell * (2 * reps + 1), first)
    return background_from_spins(
        window, FlipSpec(flip_site), convention=convention, left_cell=cell, right_cell=cell
    )


def reference_weak_flip_background(m_start, length, particle_extent=64):
    """The weak preset as a site-by-site string wide enough, then parsed."""
    extent = max(particle_extent + 8, m_start + 2 * length + 12)
    lo = -2 * extent
    hi = 2 * (extent + m_start + length)
    domain = range(m_start, m_start + length)
    text = "".join(
        "u" if s % 2 == 0 or (s + 1) // 2 in domain else "d" for s in range(lo, hi + 1)
    )
    window = SpinWindow.from_string(text, lo)
    return background_from_spins(
        window, FlipSpec(0), convention="left", left_cell="du", right_cell="du"
    )


def outcome(build):
    """The built object, or the type of the lattice error it raised."""
    try:
        return build()
    except LatticeError as exc:
        return type(exc)


# -- protocol parsing -------------------------------------------------------


def test_fig2a_matches_literal_post_flip_string():
    bg = period3_flip_background(40)
    assert bg.render_window(0, -8, 6).to_string() == "uuduududduuduud"


def test_fig2a_species_sequence_period_four():
    bg = period3_flip_background(40)
    seq = [bg.b(j) for j in range(1, 13)]
    assert seq == [1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1]


def test_neel_flip_is_single_species_with_three_downs():
    bg = neel_flip_background(30)
    assert len({bg.b(j) for j in range(bg.j_min, bg.j_max + 1)}) == 1
    assert bg.render_window(0, -7, 7).to_string() == "dudududddududud"


def test_all_up_window_flip_is_ineffective():
    window = SpinWindow.from_string("u" * 21, -10)
    with pytest.raises(FlipIneffectiveError):
        background_from_spins(window, FlipSpec(0))


def test_flip_inside_jammed_bulk_is_ineffective():
    # flipping an up whose neighbours are both up leaves the state jammed
    window = SpinWindow.from_string("ud" * 6 + "uuu" + "du" * 6, -12)
    with pytest.raises(FlipIneffectiveError):
        background_from_spins(window, FlipSpec(1))


def test_not_jammed_window_rejected():
    window = SpinWindow.from_string("uduudduudud", -5)
    with pytest.raises(NotJammedError):
        background_from_spins(window, FlipSpec(0))


def test_both_conventions_describe_the_same_flip():
    # down spins on both sides: either convention must parse
    window = SpinWindow.from_string("ud" * 8 + "u" + "du" * 8, -16)
    left = background_from_spins(window, FlipSpec(0), convention="left")
    right = background_from_spins(window, FlipSpec(0), convention="right")
    assert left.convention == "left" and right.convention == "right"
    # both render three consecutive downs around the anchored pair
    for bg in (left, right):
        row = bg.render(0, -6, 6)
        assert len(down_runs(row)) == 1


def test_roundtrip_identity():
    for bg in (period3_flip_background(24), neel_flip_background(24), weak_flip_background(4, 2, 24)):
        window = bg.render_window(0, bg.site_min, bg.site_max)
        again = background_from_postflip(window, convention=bg.convention)
        assert again.species == bg.species
        assert again.j_min == bg.j_min


# -- macrosites -------------------------------------------------------------


def test_single_species_macrosite_closed_form():
    bg = neel_flip_background(30)
    for n in range(-8, 9):
        for j in range(-10, 11):
            assert macrosite(j, n, bg) == j - (1 if j <= n else 0)


def test_macrosite_shift_only_at_crossing():
    bg = period3_flip_background(30)
    for n in range(-8, 8):
        for j in range(-12, 13):
            d = macrosite(j, n + 1, bg) - macrosite(j, n, bg)
            assert d in (0, -1)
            assert (d == -1) == (j == n + 1)


def test_macrosite_against_n0_rendering():
    bg = period3_flip_background(30)
    for j in range(-10, 11):
        site = bg.site_of(j, 0)
        assert site == 2 * macrosite(j, 0, bg) - bg.b(j)
        assert bg.render(0, site, site)[0] == UP


def test_tracker_invariant():
    bg = period3_flip_background(30)
    for j in range(-10, 11):
        tr = bg.tracker(j)
        for n in range(-8, 9):
            assert macrosite(j, n, bg) in (tr.c, tr.c + 1)


def test_macrosite_out_of_range():
    bg = period3_flip_background(16)
    with pytest.raises(IndexOutOfRangeError):
        macrosite(bg.j_max, 0, bg)


# -- rendering --------------------------------------------------------------


def test_every_render_has_exactly_one_impurity():
    bg = period3_flip_background(40)
    for n in range(-12, 13):
        runs = down_runs(bg.render(n, -45, 45))
        assert len(runs) == 1
        a, b = runs[0]
        assert b - a + 1 in (2, 3)


def test_render_locality_in_n():
    bg = period3_flip_background(40)
    for n in range(-10, 10):
        a = bg.render(n, -50, 50)
        b = bg.render(n + 1, -50, 50)
        diff = np.flatnonzero(a != b)
        assert diff.size > 0
        assert diff.max() - diff.min() <= 6


def test_render_impurity_between_particles_n_and_n_plus_one():
    bg = period3_flip_background(40)
    for n in range(-8, 9):
        left = bg.site_of(n, n)
        right = bg.site_of(n + 1, n)
        row = bg.render(n, left, right)
        assert row[0] == UP and row[-1] == UP
        assert np.all(row[1:-1] == DOWN)
        assert right - left - 1 in (2, 3)


def test_weak_render_four_classes():
    # grouping of basis states by their macrosite contents
    m, M = 5, 3
    bg = weak_flip_background(m, M, 40)

    def macro_content(n, lp):
        pair = bg.render(n, 2 * lp - 1, 2 * lp)
        return ("d" if pair[0] == DOWN else "u") + ("d" if pair[1] == DOWN else "u")

    for n in range(-10, 20):
        contents = {lp: macro_content(n, lp) for lp in range(-12, 22)}
        full = [lp for lp, v in contents.items() if v == "uu"]
        empty = [lp for lp, v in contents.items() if v == "dd"]
        if n < m:
            assert empty == [n]
            assert full == list(range(m, m + M))
        elif n >= m + 2 * M - 1:
            assert empty == [n - M]
            assert full == list(range(m - 1, m + M - 1))
        elif (n - m) % 2 == 0:
            a = (n - m) // 2
            assert contents[m + a - 1] == "ud"
            assert empty == []
            assert full == list(range(m - 1, m + a - 1)) + list(range(m + a + 1, m + M))
        else:
            b = (n - m - 1) // 2
            assert empty == [m + b]
            assert full == list(range(m - 1, m + b)) + list(range(m + b + 1, m + M))


def test_render_window_guard():
    bg = period3_flip_background(12)
    with pytest.raises(GuardError):
        bg.render(0, bg.site_min - 10, 0)
    with pytest.raises(GuardError):
        bg.render_block(bg.j_min - 2, 0, -4, 4)


def test_impurity_state_wrapper():
    bg = period3_flip_background(16)
    state = ImpurityBasisState(2, bg)
    w = render(state, -10, 10)
    assert w.first_site == -10 and len(w) == 21
    with pytest.raises(IndexOutOfRangeError):
        ImpurityBasisState(bg.j_max, bg)


# -- extension --------------------------------------------------------------


def test_extension_preserves_shared_particles():
    bg = period3_flip_background(16)
    big = bg.extended_to_particles(-64, 64)
    assert big.j_min <= -64 and big.j_max >= 64
    for j in range(bg.j_min + 1, bg.j_max - 1):
        assert big.b(j) == bg.b(j)
        assert big.c(j) == bg.c(j)


def test_extension_without_cells_raises():
    bg = period3_flip_background(16)
    stripped = Background(bg.species, bg.j_min, bg.convention)
    with pytest.raises(GuardError):
        stripped.extended_to_particles(-200, 200)


def test_extension_rejects_a_cell_that_does_not_match_the_edge():
    # a period-3 window declaring Neel cells used to grow all-up tails
    window = SpinWindow.from_string("duu" * 9, 0)
    bg = background_from_spins(window, FlipSpec(14), left_cell="ud", right_cell="ud")
    with pytest.raises(NotJammedError, match="tile 'uu' is not a rotation of the declared cell 'ud'"):
        bg.extended_to_particles(-30, 30)
    # any rotation of the true cell is accepted, and gives the same tails
    rotated = background_from_spins(window, FlipSpec(14), left_cell="udu", right_cell="duu")
    true = background_from_spins(window, FlipSpec(14), left_cell="uud", right_cell="uud")
    wide = rotated.extended_to_particles(-30, 30)
    assert wide.j_min <= -30 and wide.j_max >= 30
    assert wide.species == true.extended_to_particles(-30, 30).species


def test_extension_rejects_tiles_the_recurrence_cannot_continue():
    # the edge tile holds the impurity and matches its (unjammed) cell, so
    # only the recurrence check sees the copied impurities
    window = SpinWindow.from_string("uuuddududud", 0)
    bg = background_from_postflip(window, left_cell="uuudd", right_cell="ud")
    assert outcome(lambda: reference_extension(bg, -20, 3)) is NotJammedError
    with pytest.raises(NotJammedError, match="not a single-flip state"):
        bg.extended_to_particles(-20, 3)


def test_extension_matches_the_presets_built_wide():
    for small, wide in (
        (period3_flip_background(16), reference_periodic_flip_background("duu", -1, 200, "right")),
        (neel_flip_background(16), reference_periodic_flip_background("ud", 0, 200, "left")),
        (weak_flip_background(4, 3, 16), reference_weak_flip_background(4, 3, 200)),
    ):
        big = small.extended_to_particles(-150, 150)
        lo, hi = max(big.j_min, wide.j_min), min(big.j_max, wide.j_max)
        assert lo <= -150 and hi >= 150
        for j in range(lo, hi + 1):
            assert big.b(j) == wide.b(j)
        assert big.c(-150) == wide.c(-150) and big.c(150) == wide.c(150)


def test_extended_to_sites_grows_only_the_short_side():
    bg = period3_flip_background(16)
    right_only = Background(bg.species, bg.j_min, bg.convention, None, bg.right_cell)
    wide = right_only.extended_to_sites(30, 60)
    assert wide.j_min == bg.j_min and wide.site_max >= 64
    with pytest.raises(GuardError):
        right_only.extended_to_sites(bg.site_min, 60)
    far = bg.extended_to_sites(2000, 2010)
    assert far.j_min == bg.j_min and far.site_max >= 2014
    # one particle per missing site, rounded up to whole two-particle tiles
    assert far.j_max - bg.j_max <= 2014 - bg.site_max + 4
    # growing both sides to +-2018 particles stored 4053
    assert len(far.species) <= 2100


def test_preset_flip_far_from_the_origin_parses():
    bg = periodic_flip_background("duu", 299, 200)
    ref = reference_periodic_flip_background("duu", 299, 200)
    assert_same_preset(bg, ref, 200)


# -- open chains ------------------------------------------------------------


def test_chain_is_part_of_equality_and_hash():
    bg = period3_flip_background(16)
    chain = bg.on_chain(-7, 6)
    assert chain.chain == (-7, 6)
    assert chain != bg and hash(chain) != hash(bg)
    assert chain == bg.on_chain(-7, 6) and hash(chain) == hash(bg.on_chain(-7, 6))
    assert chain != bg.on_chain(-7, 7)
    assert chain.infinite == bg and bg.infinite is bg


def test_extension_keeps_the_chain():
    chain = period3_flip_background(16).on_chain(-7, 6)
    wide = chain.extended_to_particles(-64, 64)
    assert wide.chain == (-7, 6) and wide.j_min <= -64
    assert chain.extended_to_sites(-200, 200).chain == (-7, 6)
    assert wide.infinite == period3_flip_background(16).extended_to_particles(-64, 64)


def test_chain_rows_render_only_inside_the_chain():
    bg = period3_flip_background(16)
    chain = bg.on_chain(-7, 6)
    np.testing.assert_array_equal(chain.render_block(-3, 3, -7, 6), bg.render_block(-3, 3, -7, 6))
    for lo, hi in ((-8, 0), (0, 7)):
        with pytest.raises(GuardError):
            chain.render_block(-3, 3, lo, hi)


def test_chain_must_hold_the_flipped_pair():
    bg = period3_flip_background(16)
    for lo, hi in ((0, 6), (-7, -1)):
        with pytest.raises(ValueError):
            bg.on_chain(lo, hi)


# -- coarse geometry --------------------------------------------------------


def test_coarse_xi_single_species_is_one():
    bg = neel_flip_background(30)
    for r in (1, 3, 7):
        assert coarse_xi(bg, 5, r) == 1.0


def test_coarse_xi_period3_approaches_three_quarters():
    bg = period3_flip_background(80)
    errs = [abs(coarse_xi(bg, 11, r) - 0.75) for r in (4, 8, 16, 32)]
    assert all(e <= 1.0 / (2 * r + 1) for e, r in zip(errs, (4, 8, 16, 32)))


def test_coarse_xi_cumulative_sum_oracle():
    bg = period3_flip_background(40)
    j, r = 7, 5
    acc = [1 - bg.b(m) * (1 - bg.b(m + 1)) for m in range(j - r, j + r + 1)]
    assert coarse_xi(bg, j, r) == pytest.approx(sum(acc) / len(acc))


def test_x_of_ell_period3():
    bg = period3_flip_background(60)
    assert x_of_ell(bg, 0) == 0.0
    for ell in range(-36, 37, 3):
        assert abs(x_of_ell(bg, ell) - 2 * ell / 3.0) <= 0.5 + 1e-12
    # exact periodicity on either side of the impurity: six sites advance
    # four particles (the particle indexing has a kink at the flip)
    for ell in list(range(1, 20)) + list(range(-26, -7)):
        assert x_of_ell(bg, ell + 6) - x_of_ell(bg, ell) == pytest.approx(4.0)


def test_x_of_ell_single_species():
    bg = neel_flip_background(40)
    for ell in range(-30, 31):
        assert x_of_ell(bg, ell) == pytest.approx(ell / 2.0)


# -- property tests ---------------------------------------------------------


@st.composite
def random_backgrounds(draw):
    n_side = draw(st.integers(min_value=6, max_value=20))
    left = draw(st.lists(st.integers(0, 1), min_size=n_side, max_size=n_side))
    right = draw(st.lists(st.integers(0, 1), min_size=n_side, max_size=n_side))
    species = left + right
    j_min = -(n_side - 1)
    b0, b1 = species[n_side - 1], species[n_side]
    if b0 == 1 and b1 == 0:  # forbid the four-down impurity
        species[n_side - 1] = 0
        b0 = 0
    convention = "right" if b0 == 1 else ("left" if b1 == 0 else draw(st.sampled_from(["left", "right"])))
    return Background(tuple(species), j_min, convention)


@settings(max_examples=60, deadline=None)
@given(random_backgrounds())
def test_random_background_renders_are_single_impurity_states(bg):
    lo, hi = bg.site_min, bg.site_max
    for n in range(bg.j_min + 1, bg.j_max):
        runs = down_runs(bg.render(n, lo, hi))
        assert len(runs) == 1
        a, b = runs[0]
        assert b - a + 1 in (2, 3)


@settings(max_examples=60, deadline=None)
@given(random_backgrounds())
def test_random_background_roundtrip(bg):
    window = bg.render_window(0, bg.site_min, bg.site_max)
    again = background_from_postflip(window, convention=bg.convention)
    assert again.species == bg.species
    assert again.j_min == bg.j_min


# cyclically jammed spin cells of 2-7 sites: no two adjacent downs
jammed_cells = st.text(alphabet="ud", min_size=2, max_size=7).filter(lambda c: "dd" not in c + c[0])


@st.composite
def padded_backgrounds(draw):
    """Inline window: two or more edge cells on each side around a random middle.

    The declared cells are random rotations of the true ones; the flip lands
    on any up spin with a down neighbour, also inside an edge cell.
    """
    left, right = draw(jammed_cells), draw(jammed_cells)
    middle = draw(st.text(alphabet="ud", max_size=10).filter(lambda m: "dd" not in m))
    text = left * draw(st.integers(2, 5)) + middle + right * draw(st.integers(2, 5))
    flips = [k for k in range(1, len(text) - 1) if text[k] == "u" and "d" in text[k - 1 : k + 2]]
    assume(flips)
    first = draw(st.integers(-30, 30))
    flip = first + draw(st.sampled_from(flips))
    convention = draw(st.sampled_from(["auto", "left", "right"]))
    r_left, r_right = draw(st.integers(0, len(left) - 1)), draw(st.integers(0, len(right) - 1))
    cells = left[r_left:] + left[:r_left], right[r_right:] + right[:r_right]
    return SpinWindow.from_string(text, first), FlipSpec(flip), convention, cells


@settings(max_examples=250, deadline=None)
@given(
    padded_backgrounds(),
    st.integers(-40, 80),
    st.integers(-40, 80),
    st.one_of(st.none(), st.tuples(st.integers(-12, -1), st.integers(0, 12))),
)
def test_extension_equals_the_string_round_trip(spec, grow_left, grow_right, chain):
    window, flip, convention, cells = spec
    bg = outcome(lambda: background_from_spins(window, flip, convention, *cells))
    assert bg == outcome(lambda: reference_spins(window, flip, convention, *cells))
    if not isinstance(bg, Background):
        return
    if chain is not None:
        bg = bg.on_chain(*chain)
    j_lo, j_hi = bg.j_min - grow_left, bg.j_max + grow_right
    got = outcome(lambda: bg.extended_to_particles(j_lo, j_hi))
    assert got == outcome(lambda: reference_extension(bg, j_lo, j_hi))
    if isinstance(got, Background):
        assert got.j_min <= j_lo and got.j_max >= j_hi
        assert (got.left_cell, got.right_cell, got.chain) == (*cells, bg.chain)


def assert_same_preset(got, ref, extent):
    """Same outcome; a built preset covers +-extent and equals the reference where both store."""
    if not isinstance(ref, Background):
        assert got == ref
        return
    assert isinstance(got, Background)
    assert got.j_min <= -extent and got.j_max >= extent
    assert (got.convention, got.left_cell, got.right_cell) == (
        ref.convention, ref.left_cell, ref.right_cell
    )
    js = range(max(got.j_min, ref.j_min), min(got.j_max, ref.j_max) + 1)
    assert [got.b(j) for j in js] == [ref.b(j) for j in js]
    assert [got.c(j) for j in js] == [ref.c(j) for j in js]
    # n = j leaves particle j unshifted, n = j - 1 shifts it
    assert [(got.site_of(j, j), got.site_of(j, j - 1)) for j in js] == [
        (ref.site_of(j, j), ref.site_of(j, j - 1)) for j in js
    ]


@st.composite
def periodic_presets(draw):
    """A jammed cell, any site of a cell at least four cells inside the reference window.

    The reference window spans cells -reps..reps; nearer its edges it holds
    too few particles on one side of the flip.
    """
    cell = draw(jammed_cells)
    extent = draw(st.integers(0, 300))
    reps = (extent + 8) // cell.count("u") + 3
    flip = draw(st.integers(4 - reps, reps - 4)) * len(cell) + draw(st.integers(0, len(cell) - 1))
    return cell, flip, extent, draw(st.sampled_from(["auto", "left", "right"]))


@settings(max_examples=150, deadline=None)
@given(periodic_presets())
def test_periodic_preset_equals_the_string_tiled_reference(spec):
    cell, flip, extent, convention = spec
    assert_same_preset(
        outcome(lambda: periodic_flip_background(cell, flip, extent, convention)),
        outcome(lambda: reference_periodic_flip_background(cell, flip, extent, convention)),
        extent,
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 10), st.integers(0, 300))
def test_weak_preset_equals_the_string_tiled_reference(m, M, extent):
    assert_same_preset(
        weak_flip_background(m, M, extent), reference_weak_flip_background(m, M, extent), extent
    )


@st.composite
def rough_windows(draw):
    """Windows of up runs and down runs of 1-5 sites, edges included."""
    runs = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5)), min_size=1, max_size=8))
    text = "".join("u" * u + "d" * d for u, d in runs)
    text = text[draw(st.integers(0, 2)) :] or "d"
    return SpinWindow.from_string(text, draw(st.integers(-20, 20)))


@settings(max_examples=300, deadline=None)
@given(
    rough_windows(),
    st.sampled_from(["left", "right"]),
    st.integers(0, 40),
    st.sampled_from(["auto", "left", "right"]),
)
def test_parse_raises_like_the_string_era_parse(window, convention, k, flip_convention):
    # zero, one or several multi-down runs, runs longer than three, and runs
    # touching either edge of the window
    assert outcome(lambda: background_from_postflip(window, convention)) == outcome(
        lambda: reference_postflip(window, convention)
    )
    flip = FlipSpec(window.first_site + k % len(window))
    assert outcome(lambda: background_from_spins(window, flip, flip_convention)) == outcome(
        lambda: reference_spins(window, flip, flip_convention)
    )
