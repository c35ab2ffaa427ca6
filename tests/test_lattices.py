"""Lattice arithmetic: quantization, moments, dithers, nesting, cosets."""

import json
import math
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from latfun import (
    CoordinateOutOfRange,
    IllConditionedLattice,
    InvalidPrime,
    Lattice,
    LatfunError,
    MissingMomentEstimate,
    NestedPair,
    NonFiniteTarget,
    NonPositiveTarget,
    SingularLattice,
    TooManyCosets,
    UnsupportedDimension,
    construction_a,
    coset_leaders,
    hexagonal_lattice,
    integer_lattice,
    mod_lattice,
    nearest_point,
    nearest_point_coords,
    normalized_second_moment,
    sample_dither,
    scale_to_second_moment,
    second_moment,
)
from latfun import kernels
from latfun.errors import DimensionMismatch
from latfun.lattices import _hermite_basis, _search, reduce_stacked
from latfun.simulate import _row_any

from oracles import closest_point_oracle, contains, in_voronoi, rounding_dither_map
from pin_golden import D4_GEN

A2 = hexagonal_lattice()


# ---------------------------------------------------------------------------
# nearest_point / mod_lattice


def test_nearest_point_rounding_1d():
    assert nearest_point(integer_lattice(1), [0.3]) == pytest.approx([0.0])


def test_nearest_point_componentwise():
    got = nearest_point(integer_lattice(2), [1.7, -2.2])
    assert got == pytest.approx([2.0, -2.0])


def test_nearest_point_hexagonal_matches_exhaustive():
    x = np.array([0.9, 0.9])
    cands = np.array(list(product(range(-3, 4), repeat=2)))
    pts = cands @ A2.gen.T
    best = pts[np.argmin(np.sum((pts - x) ** 2, axis=1))]
    assert nearest_point(A2, x) == pytest.approx(best)


def test_nearest_point_ties_lexicographic():
    z1 = integer_lattice(1)
    assert nearest_point(z1, [0.5]) == pytest.approx([0.0])
    assert nearest_point(z1, [-0.5]) == pytest.approx([-1.0])
    assert nearest_point(z1, [2.5]) == pytest.approx([2.0])


def test_mod_lattice_interval():
    z1 = integer_lattice(1)
    assert mod_lattice(z1, [0.3]) == pytest.approx([0.3])
    assert mod_lattice(z1, [0.7]) == pytest.approx([-0.3])


def test_mod_lattice_kills_lattice_points(rng):
    for lat in [A2, integer_lattice(3, 0.7)]:
        coords = rng.integers(-5, 6, size=lat.dim)
        point = coords @ lat.gen.T
        assert mod_lattice(lat, point) == pytest.approx(np.zeros(lat.dim), abs=1e-9)


def test_quantizer_consistency(rng):
    # x - Q(x) always lies in the Voronoi cell of the origin.
    for lat in [A2, integer_lattice(2, 1.3), Lattice(rng.normal(size=(3, 3)) + 3 * np.eye(3))]:
        for _ in range(50):
            x = rng.normal(scale=4.0, size=lat.dim)
            assert in_voronoi(lat, mod_lattice(lat, x))


@settings(max_examples=60, deadline=None)
@given(
    x0=st.floats(-20, 20), x1=st.floats(-20, 20),
    y0=st.floats(-20, 20), y1=st.floats(-20, 20),
)
# Near-ties that a tie tolerance growing with |x + y| resolved differently
# on the two sides.
@example(x0=1.0, x1=0.0, y0=11.000000000067127, y1=1.0)
@example(x0=1e-12, x1=5.0, y0=0.0, y1=1.0)
def test_distributive_law_hexagonal(x0, x1, y0, y1):
    x = np.array([x0, x1])
    y = np.array([y0, y1])
    lhs = mod_lattice(A2, mod_lattice(A2, x) + y)
    rhs = mod_lattice(A2, x + y)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_distributive_law_random_lattices(rng):
    # Random-lattice version of the same identity, 1000 trials total.
    lats = [integer_lattice(1, 0.8), integer_lattice(3, 2.0), A2,
            Lattice(rng.normal(size=(2, 2)) + 2 * np.eye(2))]
    for lat in lats:
        x = rng.normal(scale=5.0, size=(250, lat.dim))
        y = rng.normal(scale=5.0, size=(250, lat.dim))
        lhs = mod_lattice(lat, mod_lattice(lat, x) + y)
        rhs = mod_lattice(lat, x + y)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def _assert_same_bits(got, want):
    # Equal values and equal signs of zero.
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class _FixedDraws:
    """Stands in for a Generator whose ``random`` returns given values, in a
    fresh array as a Generator's draws are (``sample_dither`` maps its draws
    in place)."""

    def __init__(self, values):
        self.values = values

    def random(self, shape):
        return self.values.reshape(shape).copy()


# (n, step): unequal scales at step None; the lattice step Z^n otherwise,
# whose ``_scales`` is the one float step. The tiny step is the smallest
# power of two whose squared length and n-th power stay normal, which the
# generator range check requires (2^-511 at n = 1, 2^-127 at n = 8).
_DIAGONAL_CASES = [pytest.param(n, None, id=str(n)) for n in range(1, 9)] + [
    pytest.param(n, step, id=f"{n}-equal-{label}")
    for n in (1, 4, 8)
    for label, step in (("pos", 1.7), ("neg", -0.6), ("tiny", 2.0 ** -min(511, 1022 // n)))
]


@pytest.mark.parametrize("n, step", _DIAGONAL_CASES)
def test_diagonal_fast_path_matches_generic_formulas(rng, n, step):
    # Unequal scales, one negative, or equal scales of either sign and at
    # the tiny step; rows of random points, exact half-integer ties of both signs,
    # +-0 and points that round to 0 from below.
    if step is None:
        scales = rng.uniform(0.2, 3.0, size=n)
        scales[n // 2] *= -1.0
        lat = Lattice(np.diag(scales))
        cell = 1.0
    else:
        scales = np.full(n, step)
        lat = integer_lattice(n, step)
        assert type(lat._scales) is float and lat._scales == step
        cell = abs(step)
    assert lat.is_diagonal
    ties = (rng.integers(-4, 5, size=(40, n)) + rng.choice([-0.5, 0.5], size=(40, n))) * scales
    x = np.concatenate([
        rng.normal(scale=4.0 * cell, size=(300, n)),
        ties,
        np.zeros((1, n)),
        np.full((1, n), -0.0),
        -0.3 * np.abs(scales)[None, :],
    ])
    generic = nearest_point_coords(lat, x) @ lat.gen.T
    _assert_same_bits(nearest_point(lat, x), generic)
    # Rounding by the (n,) row of scales gives the same bits as by _scales.
    _assert_same_bits(nearest_point(lat, x), np.ceil(x / scales - 0.5) * scales + 0.0)
    _assert_same_bits(mod_lattice(lat, x), x - generic)
    _assert_same_bits(nearest_point(lat, x[0]), generic[0])

    # The same uniform draws, including an exact 0, through both formulas.
    w = np.concatenate([rng.random((500, n)), np.zeros((1, n))])
    dither = sample_dither(lat, _FixedDraws(w), len(w))
    u = w @ lat.gen.T
    _assert_same_bits(dither, u - nearest_point_coords(lat, u) @ lat.gen.T)


# Draws where the half-down rounding decides: 0, 1/2 and the floats on
# either side of it, and the largest draw below 1.
_DRAW_EDGES = [0.0, float(np.nextafter(0.5, 0.0)), 0.5, float(np.nextafter(0.5, 1.0)),
               1.0 - 2.0**-53]
_SCALE_EDGES = [1e-150, 1e150, 1.0, 0.37, 3.0]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), per_coordinate=st.booleans(), data=st.data())
@example(n=1, per_coordinate=False, data=None)
@example(n=2, per_coordinate=True, data=None)
def test_diagonal_dither_map_is_the_rounding_map_bit_for_bit(n, per_coordinate, data):
    # The map that rounds t = w s half down without a + 0.0 pass against
    # the map that adds 0.0 twice; one scale (c Z^n) or one per
    # coordinate, of either sign, from 1e-150 to 1e150.
    if data is None:  # every edge draw in every coordinate, at every edge scale of both signs
        scales = [[s] * n if not per_coordinate else [s, -s][:n] for s in _SCALE_EDGES]
        scales += [[-s for s in row] for row in scales]
        draws = np.array(list(product(_DRAW_EDGES, repeat=n)))
    else:
        magnitude = st.one_of(st.sampled_from(_SCALE_EDGES), st.floats(1e-150, 1e150))
        scale = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
        row = data.draw(st.lists(scale, min_size=n, max_size=n)) if per_coordinate \
            else [data.draw(scale)] * n
        scales = [row]
        draw = st.one_of(st.sampled_from(_DRAW_EDGES), st.floats(0.0, 1.0, exclude_max=True))
        draws = np.array(data.draw(st.lists(st.lists(draw, min_size=n, max_size=n),
                                            min_size=1, max_size=20)))
    for row in scales:
        try:
            lat = Lattice(np.diag(row))
        except SingularLattice:  # a determinant beyond float64's range
            assume(data is not None)
            continue
        assert lat.is_diagonal and (type(lat._scales) is float) == (len(set(row)) == 1)
        _assert_same_bits(sample_dither(lat, _FixedDraws(draws), len(draws)),
                          rounding_dither_map(np.array(row), draws))


_NEAR_DIAGONAL_GEN = np.diag([1.5, 0.5, 2.0])
_NEAR_DIAGONAL_GEN[0, 2] = 1e-13 * 2.0


def test_near_diagonal_generator_is_searched(rng):
    # One off-diagonal entry of 2e-13, 1e-13 of the largest entry: not
    # diagonal, so searched like any other generator, and its points are
    # the brute-force oracle's.
    lat = Lattice(_NEAR_DIAGONAL_GEN)
    assert not lat.is_diagonal and lat._sphere is None
    x = rng.normal(scale=3.0, size=(200, 3))
    coords = nearest_point_coords(lat, x)
    assert lat._sphere is not None
    assert np.array_equal(coords, [closest_point_oracle(lat.gen, row) for row in x])
    _assert_same_bits(nearest_point(lat, x), coords @ lat.gen.T)


def test_near_diagonal_dither_is_the_generic_map(rng):
    # The dither of a generator with a tiny off-diagonal entry takes the
    # path of every non-diagonal one: u - nearest_point(u), u = w G^T.
    lat = Lattice(_NEAR_DIAGONAL_GEN)
    w = np.concatenate([rng.random((500, 3)), np.zeros((1, 3))])
    u = w @ lat.gen.T
    _assert_same_bits(sample_dither(lat, _FixedDraws(w), len(w)), u - nearest_point(lat, u))


@pytest.mark.parametrize("lat", [
    integer_lattice(3, -0.7),
    Lattice(np.diag([0.7, 1.3, 2.0])),
    Lattice(_NEAR_DIAGONAL_GEN),
    hexagonal_lattice(0.9),
    Lattice(D4_GEN).scaled(1.3),
], ids=["cz3-negative-step", "diag-unequal", "near-diagonal", "a2", "d4"])
def test_overload_by_point_is_overload_by_coordinates(lat, rng):
    # The engine flags overload where the coarse point of the mod input is
    # nonzero; that is where its integer coordinates are nonzero, on
    # Gaussian rows, +-0 rows and rows on the coarse cell's half-ties.
    n = lat.dim
    rows = np.concatenate([
        rng.normal(scale=abs(np.linalg.det(lat.gen)) ** (1.0 / n), size=(300, n)),
        np.zeros((1, n)),
        np.full((1, n), -0.0),
        rng.choice([0.0, -0.0], size=(20, n)),
        0.5 * rng.integers(-3, 4, size=(200, n)) @ lat.gen.T,
    ])
    by_point = _row_any(nearest_point(lat, rows))
    assert np.array_equal(by_point, _row_any(nearest_point_coords(lat, rows)))
    assert by_point.any() and not by_point.all()


@pytest.mark.parametrize("make", [
    lambda: hexagonal_lattice(1e200),
    lambda: hexagonal_lattice(1e-200),
    lambda: integer_lattice(2, 1e-200),
    lambda: integer_lattice(8, 1e40),   # det 1e320 overflows
    lambda: integer_lattice(8, 1e-50),  # det 1e-400 underflows
    lambda: Lattice(np.array([[1e160, 0.0], [1e160, 1.0]])),
], ids=["a2-1e200", "a2-1e-200", "z2-1e-200", "z8-det-overflow", "z8-det-underflow", "gram"])
@pytest.mark.filterwarnings("error")
def test_generator_out_of_range_rejected(make):
    with pytest.raises(SingularLattice, match="out of range.*1e-154..1e154"):
        make()


def test_singular_and_zero_column_messages():
    with pytest.raises(SingularLattice, match="singular within tolerance"):
        Lattice(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(SingularLattice, match="zero column"):
        Lattice(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularLattice, match="square n x n"):
        Lattice(np.ones((2, 3)))
    # The Hadamard ratio is scale-free: the same near-singular shape is
    # rejected at any scale inside the range.
    for scale in (1e-100, 1.0, 1e100):
        with pytest.raises(SingularLattice, match="singular within tolerance"):
            Lattice(scale * np.array([[1.0, 1.0], [0.0, 1e-13]]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        nearest_point(integer_lattice(2), [1.0, 2.0, 3.0])


def test_unsupported_dimension_general_gen():
    gen = np.eye(9)
    gen[0, 1] = 0.5  # not diagonal
    with pytest.raises(UnsupportedDimension):
        nearest_point(Lattice(gen), np.zeros(9))


def test_diagonal_any_dimension():
    lat = integer_lattice(12, 2.0)
    x = np.linspace(-3, 3, 12)
    got = nearest_point(lat, x)
    assert got == pytest.approx(2.0 * np.ceil(x / 2.0 - 0.5))


def test_singular_generator_rejected():
    with pytest.raises(SingularLattice):
        Lattice(np.array([[1.0, 2.0], [0.5, 1.0]]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.filterwarnings("error")
def test_non_finite_generator_rejected(bad):
    with pytest.raises(SingularLattice, match="non-finite"):
        Lattice(np.array([[1.0, 0.5], [0.0, bad]]))
    with pytest.raises(SingularLattice, match="finite"):
        integer_lattice(3, bad)
    with pytest.raises(SingularLattice, match="finite"):
        hexagonal_lattice(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("lat", [A2, integer_lattice(2)], ids=["a2", "z2"])
@pytest.mark.filterwarnings("error")
def test_non_finite_target_rejected(lat, bad):
    for call in (nearest_point_coords, in_voronoi):
        with pytest.raises(NonFiniteTarget, match="NaN or infinite") as err:
            call(lat, np.array([[0.25, 0.5], [bad, 0.0]]))
        assert "\n" not in str(err.value)
    for call in (nearest_point, mod_lattice):
        with pytest.raises(NonFiniteTarget, match="NaN or infinite"):
            call(lat, [0.0, bad])
        with pytest.raises(NonFiniteTarget, match="NaN or infinite"):
            call(lat, np.array([[bad, 0.3], [0.25, 0.5]]))


def test_far_target_reduces_into_the_voronoi_cell():
    # The nearest A2 point of (3e7, 0.3) is (3e7, 0), so the error is (0, 0.3).
    # A tie search around the target itself, with a tolerance of 1e-12 |y|^2,
    # returned (28.5, -9.23), far outside the cell (covering radius 1/sqrt(3)).
    err = mod_lattice(A2, [[3e7, 0.3]])[0]
    assert np.linalg.norm(err) <= 1.0 / math.sqrt(3.0) + 1e-9


_SRC = str(Path(kernels.__file__).resolve().parent.parent)

# Targets whose Babai coordinates float64 cannot step by one, where a search
# would loop, or which overflow the rotation into the base's frame.
_HUGE_TARGETS = [
    "hexagonal_lattice(), [1e19, 0.3]",
    "hexagonal_lattice(), [1e25, 0.3]",
    "hexagonal_lattice(), [[1.7e308, -1.7e308], [0.2, 0.3]]",
    "hexagonal_lattice().scaled(1e-150), [1e160, 0.3]",
    "Lattice(np.array(D4_GEN)), [3e16, 0.1, 0.2, 0.3]",
]

_HUGE_TARGET_RUN = """\
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
from latfun import *
from pin_golden import D4_GEN
for lat, x in [{cases}]:
    for call in (nearest_point_coords, nearest_point, mod_lattice):
        try:
            call(lat, x)
        except CoordinateOutOfRange as err:
            assert len(str(err).splitlines()) == 1 and "2^53" in str(err), err
        else:
            raise AssertionError((call.__name__, x))
print("ok")
"""


def test_huge_targets_raise_in_time():
    """Each far target ends at once in a one-line ``CoordinateOutOfRange``,
    with no RuntimeWarning. The calls run in a child process under ``-W
    error``, so a hang fails the test at the timeout instead of stalling the
    suite."""
    code = _HUGE_TARGET_RUN.format(cases=", ".join(f"({case})" for case in _HUGE_TARGETS))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, _SRC,
                           str(Path(__file__).parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.filterwarnings("error")
def test_coordinates_answer_below_two_to_the_53():
    big = 2.0**52
    assert nearest_point_coords(A2, [big, 0.3]).tolist() == [2**52, 0]
    assert nearest_point(A2, [[big, 0.3]]).tolist() == [[big, 0.0]]
    with pytest.raises(CoordinateOutOfRange, match="2\\^53"):
        nearest_point_coords(A2, [2.0**53, 0.3])
    # A non-finite target is named as such, wherever it sits in the call.
    with pytest.raises(NonFiniteTarget, match="NaN or infinite"):
        reduce_stacked([A2, A2.scaled(2.0)], [np.zeros((3, 2)), np.array([[1e30, math.nan]])])


@pytest.mark.parametrize("lat", [integer_lattice(1), Lattice(np.diag([1.0, 3.0])),
                                 Lattice(np.array([[1.0, 1e-14], [0.0, 1.0]]))],
                         ids=["z1", "diag", "near-diag"])
@pytest.mark.filterwarnings("error")
def test_diagonal_coordinates_outside_int64_raise(lat):
    x = np.full(lat.dim, 1e19)
    if not lat.is_diagonal:
        # Any nonzero off-diagonal entry takes the search, which holds its
        # coordinates in float64 and stops at 2^53.
        for call in (nearest_point_coords, nearest_point):
            with pytest.raises(CoordinateOutOfRange, match="2\\^53") as err:
                call(lat, x)
            assert "\n" not in str(err.value)
        return
    with pytest.raises(CoordinateOutOfRange, match="outside the int64 range") as err:
        nearest_point_coords(lat, x)
    assert "\n" not in str(err.value)
    inside = np.full(lat.dim, 2.0**62)
    assert nearest_point_coords(lat, inside).tolist() == [
        int(v) for v in np.rint(inside / np.diag(lat.gen))]
    # The float path needs no integers.
    assert nearest_point(lat, x).tolist() == (np.rint(x / np.diag(lat.gen))
                                              * np.diag(lat.gen)).tolist()


_PROPERTY_BASES = {}


def _property_base(n):
    """One conditioned random basis per n, built once, so the examples share
    its search context."""
    if n not in _PROPERTY_BASES:
        rng = np.random.default_rng([n, 53])
        while True:
            gen = rng.normal(size=(n, n))
            if np.linalg.cond(gen) < 6.0:
                break
        _PROPERTY_BASES[n] = Lattice(gen)
    return _PROPERTY_BASES[n]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8),
       rows=st.one_of(st.sampled_from([1, 2, 2047, 2048, 2049]), st.integers(1, 3000)),
       factor=st.sampled_from([1.0, 0.37, -2.5]),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, rows=1, factor=1.0, seed=0)
@example(n=8, rows=2049, factor=-2.5, seed=1)
def test_float_coordinates_give_the_points_of_their_int64_copy(n, rows, factor, seed):
    """The search keeps its coordinates in float64 and the points multiply
    them by G as they stand: byte for byte the product of their int64 copy,
    whole or cut into parts of one row and more (one-row products go through
    numpy's matrix-vector path), across slicer blocks (2,048 rows)."""
    base = _property_base(n)
    lat = base if factor == 1.0 else base.scaled(factor)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=(rows, n)) @ lat.gen.T
    coords = _search([lat], [x])
    ints = coords.astype(np.int64)
    assert coords.dtype == np.float64 and np.array_equal(ints, coords)
    g = lat.gen.T
    assert (coords @ g).tobytes() == (ints @ g).tobytes()
    cuts = sorted({0, 1, min(2, rows), int(rng.integers(0, rows + 1)), rows})
    parts = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    pairs = reduce_stacked([lat] * len(parts), [x[p] for p in parts])
    for p, (_, point) in zip(parts, pairs):
        assert (coords[p] @ g).tobytes() == (ints[p] @ g).tobytes() == point.tobytes()
    got = nearest_point_coords(lat, x)
    assert got.dtype == np.int64 and got.tobytes() == ints.tobytes()
    assert nearest_point(lat, x).tobytes() == (got @ g).tobytes()
    one = nearest_point_coords(lat, x[-1])
    assert one.dtype == np.int64 and nearest_point(lat, x[-1]).tobytes() == (one @ g).tobytes()


def _conditioned_basis(n, cond, rng):
    """U diag(s) V^T with U and V random rotations and singular values s
    from 1 to ``cond``: every basis of condition number ``cond`` has this
    form, up to scale."""
    u, v = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    s = np.sort(np.concatenate([[1.0, cond], cond ** rng.random(n - 2)]))
    return u @ np.diag(s) @ v.T


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4), spread=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=2, spread=1.0, seed=0)
@example(n=4, spread=1.0, seed=0)
def test_search_matches_the_brute_force_oracle(n, spread, seed):
    """Every base the search accepts gets the closest points: condition
    numbers up to the bound, 1e4, at n = 2 (0.999e4, as rounding moves the
    SVD's figure) and up to 1e2 at n = 3 and 4, against Fincke-Pohst
    enumeration, on targets within a few cells of the origin."""
    rng = np.random.default_rng(seed)
    gen = _conditioned_basis(n, (0.999e4 if n == 2 else 1e2) ** spread, rng)
    x = rng.uniform(-3.0, 3.0, size=(20, n)) @ gen.T
    got = nearest_point_coords(Lattice(gen), x)
    assert np.array_equal(got, [closest_point_oracle(gen, row) for row in x])


def _rotated_rectangle(aspect):
    """R(theta) diag(1, aspect): orthogonal columns, condition number aspect."""
    c, s = math.cos(0.3), math.sin(0.3)
    return np.array([[c, -s], [s, c]]) @ np.diag([1.0, aspect])


def test_search_refuses_bases_beyond_its_condition_bound(rng):
    # The bound is scale-free: a rotated rectangle of aspect 0.99e4 is
    # searched at any scale, and one of aspect 1.01e4 raises at any scale.
    for scale in (1e-6, 1.0, 1e6):
        gen = scale * _rotated_rectangle(0.99e4)
        x = rng.uniform(-3.0, 3.0, size=(50, 2)) @ gen.T
        got = nearest_point_coords(Lattice(gen), x)
        assert np.array_equal(got, [closest_point_oracle(gen, row) for row in x])
        lat = Lattice(scale * _rotated_rectangle(1.01e4))
        for call in (nearest_point_coords, nearest_point, mod_lattice):
            with pytest.raises(IllConditionedLattice, match="condition number") as err:
                call(lat, [0.0, 0.6])
            assert "\n" not in str(err.value)
        assert lat._sphere is None


@pytest.mark.filterwarnings("error")
def test_shear_generator_raises_at_once(rng):
    # Its off-diagonal 1 is within 1e-12 of its largest entry, so it was once
    # rounded componentwise, to (1, 1) at (0, 0.6), though the origin is
    # closer; searched, it takes minutes. Its condition number is 1e12.
    lat = Lattice(np.array([[1e12, 1.0], [0.0, 1.0]]))
    assert not lat.is_diagonal
    with pytest.raises(IllConditionedLattice, match="condition number 1e\\+12 exceeds 10000"):
        nearest_point(lat, [0.0, 0.6])
    with pytest.raises(IllConditionedLattice):
        second_moment(lat, 1000, rng)


def test_search_context_is_cached_and_carried_through_scaling(rng):
    diag = integer_lattice(3, 0.7)
    nearest_point(diag, rng.normal(size=(5, 3)))
    assert diag._sphere is None and diag._frame is None  # never reaches the kernel
    lat = Lattice(rng.normal(size=(3, 3)) + 3 * np.eye(3))
    assert lat._sphere is None
    nearest_point(lat, rng.normal(size=(5, 3)))
    context = lat._sphere
    x = rng.normal(scale=4.0, size=(400, 3))
    for factor in (2.5, -0.3):
        scaled = lat.scaled(factor)
        # Searched in the base's frame: no context of its own, the base's
        # untouched, and the factors of repeated scalings multiplied.
        assert scaled._frame == (lat, factor) and scaled._sphere is None
        assert scaled.scaled(-2.0)._frame == (lat, -2.0 * factor)
        fresh = Lattice(lat.gen * factor)
        assert np.array_equal(nearest_point(scaled, x), nearest_point(fresh, x))
        assert scaled._sphere is None and lat._sphere is context
    est = second_moment(lat, 2000, rng)
    made = scale_to_second_moment(lat.with_moment(est), 0.1)
    assert made._frame[0]._sphere is context
    assert made.with_moment(est)._frame == made._frame


def test_a_scaled_lattice_computes_its_rotation_once(rng):
    lat = Lattice(rng.normal(size=(3, 3)) + 3 * np.eye(3))
    x = rng.normal(scale=4.0, size=(40, 3))
    factors = (2.5, -0.3, 1.0)
    scaled = [lat.scaled(f) for f in factors]
    # Made on a lattice's first search, not when it is built.
    assert all(s._rotation is None for s in scaled)
    first = reduce_stacked(scaled, [x] * 3)
    rotations = [s._rotation for s in scaled]
    qt = lat._sphere[0]
    for rot, f in zip(rotations, factors):
        assert rot.tobytes() == (qt / f).tobytes()
    assert rotations[2] is qt  # at factor 1, the base's own Q^T
    for _ in range(2):
        again = reduce_stacked(scaled, [x] * 3)
        assert all(np.array_equal(a[1], b[1]) for a, b in zip(first, again))
        nearest_point(scaled[0], x)
    assert all(s._rotation is rot for s, rot in zip(scaled, rotations))
    assert scaled[0].with_moment(second_moment(scaled[0], 1000, rng))._rotation is rotations[0]


def _recomputed(lat, x):
    """``nearest_point_coords`` through a kernel call that builds the slicer's
    lift afresh from the search context of the lattice's base."""
    base, factor = lat._frame or (lat, 1.0)
    qt, r, relevant, _ = base._sphere
    return kernels.nearest_point_batch(r, (x @ qt.T) / factor, relevant)


def test_cached_slicer_setup_matches_a_recomputed_one(rng):
    base = Lattice(rng.normal(size=(3, 3)) + 3 * np.eye(3))
    x = rng.normal(scale=4.0, size=(400, 3))
    ties = 0.5 * rng.integers(-6, 7, size=(200, 3)).astype(float)
    nearest_point(base, x)
    est = second_moment(base, 2000, rng)
    made = [base.scaled(2.5), base.scaled(-0.3), base.with_moment(est),
            scale_to_second_moment(base.with_moment(est), 0.1)]
    lift = base._sphere[3]
    assert np.array_equal(lift, kernels.slicer_lift(base._sphere[1], base._sphere[2]))
    for lat in made:
        for pts in (x, ties @ lat.gen.T):
            assert np.array_equal(nearest_point_coords(lat, pts), _recomputed(lat, pts))
    # with_moment keeps the same lattice, so it shares the whole context.
    assert made[2]._sphere is base._sphere


def _pow2_frame(factor):
    """A power of two that brings ``factor`` to about 1: scaling by it is
    exact, so it changes no coordinate of a closest-point search."""
    return 2.0 ** -math.frexp(factor)[1]


@pytest.mark.parametrize("factor", [2.0**-30, 1e-6, 1.0, 1e6, -1.0],
                         ids=["2^-30", "1e-6", "1", "1e6", "-1"])
@pytest.mark.parametrize("gen", [A2.gen, np.array([[2.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0],
                                                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])],
                         ids=["a2", "d4"])
def test_scaled_lattice_searches_like_its_own_generator(gen, factor, rng):
    """A scaled lattice has the coordinates of ``Lattice(scaled.gen)`` searched
    directly, at Gaussian targets and at ties (half-integer coordinates).
    The direct search runs in the exact power-of-two frame where that
    generator's entries are of order 1, because its tolerances are absolute
    and fail on a lattice much smaller than 1 (ROADMAP open item 4)."""
    n = gen.shape[0]
    scaled = Lattice(gen).scaled(factor)
    cells = rng.normal(scale=3.0, size=(500, n))
    halves = 0.5 * rng.integers(-8, 9, size=(500, n))
    frame = _pow2_frame(factor)
    direct = Lattice(scaled.gen * frame)
    for coords in (cells, halves):
        x = coords @ scaled.gen.T
        got = nearest_point_coords(scaled, x)
        assert np.array_equal(got, nearest_point_coords(direct, x * frame))
        # And the points are the scaled lattice's own.
        assert nearest_point(scaled, x).tobytes() == (got @ scaled.gen.T).tobytes()


def _golden_basis(n: int):
    """The conditioned random basis of the golden corpus at dimension n, and
    the stream that drew it."""
    rng = np.random.default_rng([n, 19])
    while True:
        gen = rng.normal(size=(n, n))
        if np.linalg.cond(gen) < 6.0:
            return gen, rng


@pytest.mark.parametrize("gen", [A2.gen, _golden_basis(4)[0]], ids=["a2", "golden-n4"])
def test_a_base_scaled_by_a_power_of_two_keeps_its_coordinates(gen):
    """``Lattice(G 2^-k)`` at ``x 2^-k`` has the coordinates of ``Lattice(G)``
    at x, ties included: a base whose entries are all below 1/2 is searched
    in the power-of-two frame where its largest entry is of order 1. With
    the search's absolute tolerances at the base's own scale, A2 went wrong
    from k = 16."""
    n = gen.shape[0]
    rng = np.random.default_rng([n, 40])
    x = np.concatenate([rng.normal(scale=2.0, size=(300, n)),
                        0.5 * rng.integers(-4, 5, size=(300, n))]) @ gen.T
    want = nearest_point_coords(Lattice(gen), x)
    for k in range(41):
        got = nearest_point_coords(Lattice(gen * 2.0**-k), x * 2.0**-k)
        assert np.array_equal(got, want), f"k = {k}"


def _closest_point_cases():
    """One conditioned random basis per n = 2..8, with Gaussian targets over a
    few cells and targets at half-integer coordinates (Voronoi ties)."""
    for n in range(2, 9):
        gen, rng = _golden_basis(n)
        gaussian = rng.normal(scale=2.0, size=(300, n)) @ gen.T
        halves = 0.5 * rng.integers(-4, 5, size=(300, n)) @ gen.T
        yield pytest.param(Lattice(gen), gaussian, id=f"n{n}-gaussian")
        yield pytest.param(Lattice(gen), halves, id=f"n{n}-halves")


@pytest.mark.parametrize("lat, targets", _closest_point_cases())
def test_stacked_rows_equal_separate_calls_byte_for_byte(lat, targets):
    parts = [targets[:100], targets[100:101], targets[101:103], targets[103:]]
    separate = np.concatenate([nearest_point_coords(lat, p) for p in parts])
    assert nearest_point_coords(lat, targets).tobytes() == separate.tobytes()
    # A one-row mod_lattice multiplies its coordinates by G as a matrix-vector
    # product, whose last bits can differ from a matrix product's, so the
    # whole-array mod is compared on parts of two rows or more.
    separate = np.concatenate([mod_lattice(lat, p) for p in (targets[:101], *parts[2:])])
    assert mod_lattice(lat, targets).tobytes() == separate.tobytes()
    # reduce_stacked multiplies each part on its own, so its points match
    # nearest_point's on every part, the one-row part included.
    pairs = reduce_stacked([lat] * len(parts), parts)
    assert len(pairs) == len(parts)
    for p, (b, got) in zip(parts, pairs):
        assert b is p and got.tobytes() == nearest_point(lat, p).tobytes()


@pytest.mark.parametrize("lat", [integer_lattice(2, 0.5), Lattice(np.diag([1.0, 3.0])),
                                 hexagonal_lattice(0.7), (A2.scaled(0.3), A2.scaled(-2.0))],
                         ids=["cz2", "diag", "a2", "a2-two-scalings"])
def test_reduce_stacked_calls_the_kernel_once_and_only_off_the_diagonal(lat, rng, monkeypatch):
    calls, taken = [], []
    search = kernels.nearest_point_batch
    monkeypatch.setattr(kernels, "nearest_point_batch",
                        lambda *args: calls.append(len(args[1])) or search(*args))
    a, b, c = (rng.normal(size=(m, 2)) for m in (5, 7, 3))
    # Two scalings of one base: the first two arrays in one, the third in
    # the other.
    lats = [lat[0], lat[0], lat[1]] if isinstance(lat, tuple) else [lat] * 3

    def arrays():
        for q in (a, b, c):
            taken.append(len(q))
            yield q

    if lats[0].is_diagonal:
        # A diagonal base is rounded, by nearest_point or the codec engine,
        # never stacked: it is refused before any array is taken.
        with pytest.raises(ValueError, match="non-diagonal"):
            reduce_stacked(lats, arrays())
        assert taken == [] and calls == []
        return
    pairs = reduce_stacked(lats, arrays())
    assert taken == [5, 7, 3]
    assert calls == [15]
    assert [p[0] is q for p, q in zip(pairs, (a, b, c))] == [True, True, True]
    want = [nearest_point(lat_q, q).tobytes() for lat_q, q in zip(lats, (a, b, c))]
    assert [p[1].tobytes() for p in pairs] == want
    # Points written to given arrays, or over the targets themselves, keep
    # those bits.
    outs = [np.empty_like(q) for q in (a, b, c)]
    assert [p[1] is o for p, o in zip(reduce_stacked(lats, [a, b, c], outs), outs)] == [True] * 3
    assert [o.tobytes() for o in outs] == want
    targets = [q.copy() for q in (a, b, c)]
    reduce_stacked(lats, targets, targets)
    assert [t.tobytes() for t in targets] == want


def test_reduce_stacked_rejects_lattices_of_two_bases(rng):
    a = rng.normal(size=(4, 2))
    with pytest.raises(ValueError, match="one base"):
        reduce_stacked([A2.scaled(0.5), hexagonal_lattice(0.5)], [a, a])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattices_and_pairs_compare_and_hash_without_raising(n):
    lat = integer_lattice(n)
    pair = NestedPair(lat, lat.scaled(2.0))
    assert lat == lat and pair == pair
    # Equality is identity: equal generators do not make equal values.
    assert lat != integer_lattice(n) and pair != NestedPair(lat, lat.scaled(2.0))
    assert len({lat, pair, integer_lattice(n), lat, pair}) == 3


@pytest.mark.parametrize("gen", [np.eye(2), A2.gen], ids=["z2", "a2"])
def test_editing_the_callers_generator_leaves_the_lattice(gen):
    g = np.array(gen)
    lat = Lattice(g)
    x = np.array([[0.6, 0.9], [0.2, -0.7]])
    before = nearest_point(Lattice(gen), x)
    g[0, 1] = 0.25
    assert np.array_equal(lat.gen, gen)
    assert np.array_equal(nearest_point(lat, x), before)


def test_generator_is_read_only():
    lat = Lattice(np.eye(2))
    with pytest.raises(ValueError, match="read-only"):
        lat.gen[0, 1] = 0.5
    assert lat.is_diagonal and np.array_equal(lat.gen, np.eye(2))


def test_membership_roundtrip(rng):
    lat = Lattice(rng.normal(size=(4, 4)) + 4 * np.eye(4))
    coords = rng.integers(-10, 10, size=4)
    assert contains(lat, coords @ lat.gen.T)
    assert not contains(lat, coords @ lat.gen.T + 0.01 * lat.gen[:, 0])


# ---------------------------------------------------------------------------
# dither sampling


def test_dither_moments_scaled_interval(rng):
    s = 1.7
    lat = integer_lattice(1, s)
    u = sample_dither(lat, rng, 1_000_000)[:, 0]
    se_mean = (s / math.sqrt(12.0)) / 1000.0
    assert abs(np.mean(u)) < 3 * se_mean
    var = s * s / 12.0
    se_var = np.std(u**2) / 1000.0
    assert abs(np.mean(u**2) - var) < 3 * se_var


def test_dither_uniformity_ks(rng):
    s = 2.3
    lat = integer_lattice(1, s)
    u = sample_dither(lat, rng, 100_000)[:, 0]
    res = stats.kstest(u, stats.uniform(loc=-s / 2, scale=s).cdf)
    assert res.pvalue > 0.01


def test_dither_hexagonal_self_consistency(rng):
    est = second_moment(A2, 40_000, rng)
    u = sample_dither(A2, np.random.default_rng(99), 40_000)
    per = np.sum(u**2, axis=1) / 2.0
    mean = np.mean(per)
    se = np.std(per) / math.sqrt(len(per))
    combined = math.hypot(se, est.std_error)
    assert abs(mean - est.value) < 3 * combined


def test_subtractive_dither_noise_law(rng):
    # e = Q(x + U) - (x + U) is distributed like -U and is independent of x.
    s = 1.0
    lat = integer_lattice(1, s)
    x = rng.normal(scale=1.4, size=(100_000, 1))
    u = sample_dither(lat, rng, 100_000)
    e = nearest_point(lat, x + u) - (x + u)
    res = stats.kstest(e[:, 0], stats.uniform(loc=-s / 2, scale=s).cdf)
    assert res.pvalue > 0.01
    corr = np.corrcoef(e[:, 0], x[:, 0])[0, 1]
    assert abs(corr) < 0.01


# ---------------------------------------------------------------------------
# moments


def test_second_moment_interval_exact():
    s = math.sqrt(12.0 * 0.06)
    est = second_moment(integer_lattice(1, s))
    assert est.value == pytest.approx(0.06, abs=1e-15)
    assert est.std_error == 0.0


def test_second_moment_diagonal_exact():
    est = second_moment(Lattice(np.diag([2.0, 2.0])))
    assert est.value == pytest.approx(1.0 / 3.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e100, 1e150])
def test_second_moment_at_extreme_scales(scale):
    # np.std squares |u|^2 again, which overflowed past scale ~1e77.
    want = second_moment(A2, 4000, np.random.default_rng(5))
    got = second_moment(A2.scaled(scale), 4000, np.random.default_rng(5))
    assert got.value / scale**2 == pytest.approx(want.value, rel=1e-12)
    assert got.std_error / scale**2 == pytest.approx(want.std_error, rel=1e-9)


def test_hexagonal_nsm_matches_quadrature(rng):
    # Quadrature oracle: average of |x|^2/n over the Voronoi cell, computed
    # on a fine membership-tested grid inside the fundamental parallelepiped
    # (the mod map sends it bijectively onto the cell).
    m = 160
    a, b = np.meshgrid((np.arange(m) + 0.5) / m, (np.arange(m) + 0.5) / m)
    pts = np.stack([a.reshape(-1), b.reshape(-1)], axis=1) @ A2.gen.T
    cell = mod_lattice(A2, pts)
    quad = np.mean(np.sum(cell**2, axis=1)) / 2.0
    nsm_quad = quad / A2.volume  # V^(2/n) = V for n = 2
    assert nsm_quad == pytest.approx(5.0 / (36.0 * math.sqrt(3.0)), abs=2e-4)

    nsm_mc = normalized_second_moment(A2, 60_000, rng)
    est = second_moment(A2, 60_000, np.random.default_rng(5))
    tol = 3.0 * est.std_error / A2.volume
    assert abs(nsm_mc - 5.0 / (36.0 * math.sqrt(3.0))) < tol + 2e-4


def test_nsm_interval():
    assert normalized_second_moment(integer_lattice(1)) == pytest.approx(1.0 / 12.0)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_nsm_scale_invariant_diagonal(scale):
    base = normalized_second_moment(integer_lattice(2, 1.0))
    scaled = normalized_second_moment(integer_lattice(2, scale))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_scale_to_second_moment_interval():
    lat = scale_to_second_moment(integer_lattice(1), 0.06)
    assert lat.gen[0, 0] == pytest.approx(math.sqrt(0.72))


def test_scale_to_second_moment_idempotent():
    lat = integer_lattice(2, 1.7)
    current = second_moment(lat).value
    again = scale_to_second_moment(lat, current)
    assert again.gen == pytest.approx(lat.gen, rel=1e-15)


def test_scale_to_second_moment_diag_target():
    lat = scale_to_second_moment(integer_lattice(2), 1.0 / 3.0)
    assert lat.gen == pytest.approx(np.diag([2.0, 2.0]))


def test_second_moment_sample_floor(rng):
    with pytest.raises(ValueError):
        second_moment(A2, 500, rng)
    with pytest.raises(ValueError, match="seeded numpy Generator"):
        second_moment(A2, 1000)


def test_scale_to_second_moment_errors(rng):
    with pytest.raises(NonPositiveTarget):
        scale_to_second_moment(integer_lattice(1), 0.0)
    with pytest.raises(MissingMomentEstimate):
        scale_to_second_moment(A2, 0.5)
    est = second_moment(A2, 50_000, rng)
    scaled = scale_to_second_moment(A2.with_moment(est), 0.5)
    assert scaled.moment.value == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# nesting and cosets


def test_verify_nesting_integer_multiple():
    pair = NestedPair(integer_lattice(1), integer_lattice(1, 4.0))
    assert contains(pair.fine, pair.coarse.gen[:, 0])
    assert pair.index == 4


def test_verify_nesting_rejects_noninteger():
    with pytest.raises(SingularLattice, match="not a sublattice"):
        NestedPair(integer_lattice(1), integer_lattice(1, 1.5))


def test_nested_pair_rejects_lattices_of_different_dimensions():
    with pytest.raises(DimensionMismatch, match="dimensions differ"):
        NestedPair(integer_lattice(1), integer_lattice(2, 2.0))


def test_nested_pair_keeps_a_nesting_matrix_within_tolerance():
    # G_fine^{-1} G_coarse of A2 and 3 A2 is 3 I only up to rounding.
    pair = NestedPair(A2, A2.scaled(3.0))
    assert pair.nesting_matrix.dtype == np.int64
    assert pair.nesting_matrix.tolist() == [[3, 0], [0, 3]]
    assert pair.index == coset_leaders(pair).shape[0] == 9


def test_nested_pair_rejects_a_nesting_matrix_beyond_int64():
    # 2^62 fits in int64; 2^63 and +-1e20 do not, so they are rejected.
    assert NestedPair(integer_lattice(1), integer_lattice(1, 2.0**62)).nesting_matrix[0, 0] == 2**62
    for scale in (2.0**63, 1e20, -1e20):
        with pytest.raises(LatfunError, match="outside the int64 range"):
            NestedPair(integer_lattice(2), integer_lattice(2, scale))


def test_nesting_matrix_is_read_only():
    pair = NestedPair(integer_lattice(2), integer_lattice(2, 2.0))
    with pytest.raises(ValueError, match="read-only"):
        pair.nesting_matrix[0, 0] = 1
    assert pair.index == 4


def test_coset_leaders_interval():
    pair = NestedPair(integer_lattice(1), integer_lattice(1, 2.0))
    leaders = coset_leaders(pair)
    assert sorted(leaders[:, 0].tolist()) == pytest.approx([0.0, 1.0])


def test_coset_leaders_square():
    pair = NestedPair(integer_lattice(2), integer_lattice(2, 2.0))
    assert coset_leaders(pair).shape == (4, 2)


def test_coset_leaders_count_matches_index(rng):
    for _ in range(5):
        while True:
            j = rng.integers(-3, 4, size=(2, 2))
            det = abs(round(float(np.linalg.det(j))))
            if 1 < det <= 60:
                break
        fine = A2
        coarse = Lattice(fine.gen @ j)
        pair = NestedPair(fine, coarse)
        leaders = coset_leaders(pair)
        assert leaders.shape[0] == pair.index == det
        # Leaders are fine points inside the coarse cell, pairwise distinct cosets.
        for row in leaders:
            assert contains(fine, row)
            assert in_voronoi(coarse, row)


def test_coset_enumeration_guard():
    pair = NestedPair(integer_lattice(1), integer_lattice(1, 5000.0))
    with pytest.raises(TooManyCosets):
        coset_leaders(pair)


# ---------------------------------------------------------------------------
# construction A


def test_construction_a_full_rank_draw():
    coarse = integer_lattice(2, 3.0)
    res = construction_a(coarse, 3, 1, np.random.default_rng(1))
    assert res.rank == 1
    assert res.coset_count == 3
    assert res.pair.nesting_ratio == pytest.approx(math.sqrt(3.0))
    assert res.pair.index == res.coset_count
    assert coset_leaders(res.pair).shape[0] == 3
    # Coarse basis vectors are members of the fine lattice.
    for col in coarse.gen.T:
        assert contains(res.pair.fine, col)


def test_construction_a_k_zero_rejected():
    with pytest.raises(ValueError):
        construction_a(integer_lattice(2), 3, 0, np.random.default_rng(0))


def test_construction_a_invalid_prime():
    with pytest.raises(InvalidPrime):
        construction_a(integer_lattice(2), 4, 1, np.random.default_rng(0))


class _ZeroDrawRng:
    """Stub stream whose integer draws are all zero (forces a rank-0 code)."""

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)


def test_construction_a_rank_deficient_draw():
    coarse = integer_lattice(2, 3.0)
    res = construction_a(coarse, 3, 1, _ZeroDrawRng())
    assert res.rank == 0
    assert res.rank_deficient
    assert res.coset_count == 1
    assert res.pair.fine.gen == pytest.approx(coarse.gen)


@pytest.mark.parametrize("p, n", list(product((2, 3, 5), (3, 4))))
def test_construction_a_coset_count_is_the_code_size(p, n):
    """At every k >= 2 the cosets number p^rank, the size of the code C
    counted by brute force over all p^k messages."""
    for k in range(2, n):
        for seed in range(4):
            res = construction_a(integer_lattice(n), p, k, np.random.default_rng([p, n, k, seed]))
            words = {tuple(np.array(u) @ res.code_matrix % p) for u in product(range(p), repeat=k)}
            assert p**res.rank == len(words) == res.coset_count
            assert res.pair.index == coset_leaders(res.pair).shape[0] == res.coset_count
            assert res.rank_deficient == (res.rank < k)
            for word in words:
                assert contains(res.pair.fine, np.array(word) / p)


def _random_unimodular(rng, n):
    u = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        u[i] += int(rng.integers(-2, 3)) * u[j]
        if rng.random() < 0.3:
            u[[i, j]] = u[[j, i]]
    return u


def test_hermite_basis_is_canonical(rng):
    """Rows and a unimodular mix of them give one basis: upper triangular,
    positive pivots whose product is |det|, entries above a pivot in
    [0, pivot)."""
    for n in (2, 3, 4):
        for _ in range(10):
            while True:
                j = rng.integers(-4, 5, size=(n, n))
                det = round(abs(float(np.linalg.det(j))))
                if det:
                    break
            h = _hermite_basis(j.T.tolist())
            assert h == _hermite_basis((_random_unimodular(rng, n) @ j.T).tolist())
            assert math.prod(h[i][i] for i in range(n)) == det
            for i in range(n):
                assert all(h[i][col] == 0 for col in range(i))
                assert all(0 <= h[r][i] < h[i][i] for r in range(i))


def test_hermite_basis_rejects_rank_deficient_rows():
    with pytest.raises(SingularLattice, match="rank deficient"):
        _hermite_basis([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# serialization


def test_lattice_json_roundtrip():
    for lat in (A2, integer_lattice(3, 0.7)):
        back = Lattice.from_json(lat.to_json())
        assert np.array_equal(back.gen, lat.gen)
        assert sorted(json.loads(lat.to_json())) == ["dim", "gen"]
