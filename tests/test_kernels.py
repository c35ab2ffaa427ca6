"""Closest-point kernel: brute-force oracle agreement for the scalar search
and for the public path."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latfun
from latfun import kernels


def _run(gen, points):
    """The scalar search, row by row."""
    q, r = kernels.qr_factor(gen)
    return np.array([kernels.closest_coords(r, y) for y in points @ q], dtype=np.int64)


def _brute_force_lex(gen, x, radius=6):
    """Exhaustive box search with the lexicographic tie rule."""
    n = gen.shape[0]
    box = np.array(list(product(range(-radius, radius + 2), repeat=n)))
    pts = box @ gen.T
    d2 = np.sum((pts - x) ** 2, axis=1)
    best = d2.min()
    ties = box[d2 <= best + 1e-12]
    return min(map(tuple, ties))


def _conditioned_basis(rng, n, cond_max=4.0):
    while True:
        g = rng.normal(size=(n, n))
        if np.linalg.cond(g) < cond_max:
            return g


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matches_brute_force_box(n, rng):
    for _ in range(6):
        gen = _conditioned_basis(rng, n)
        # Targets inside the fundamental parallelepiped keep the optimum in
        # the search box for the conditioning used here.
        t = rng.uniform(0.0, 1.0, size=(10, n))
        x = t @ gen.T
        got = _run(gen, x)
        for row in range(x.shape[0]):
            assert tuple(got[row]) == _brute_force_lex(gen, x[row])


def test_tie_break_is_lexicographic():
    gen = np.eye(2)
    got = _run(gen, np.array([[0.5, -0.5], [1.5, 2.5], [-0.5, -1.5]]))
    assert got.tolist() == [[0, -1], [1, 2], [-1, -2]]


def test_backend_names_read_by_the_benchmark():
    assert latfun.KERNEL_BACKEND == "python"
    assert kernels.available_backends() == ["python"]


def test_skewed_basis_regression(rng):
    gen = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
    x = np.array([[0.9, 0.9]])
    got = _run(gen, x)
    assert tuple(got[0]) == _brute_force_lex(gen, x[0], radius=3)


# ---------------------------------------------------------------------------
# Public path: ``kernels.nearest_point_batch`` (the slicer) against an
# exhaustive box search.

A2 = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
D4 = np.array([[2.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
E8 = np.array([[2, -1, 0, 0, 0, 0, 0, 0.5], [0, 1, -1, 0, 0, 0, 0, 0.5],
               [0, 0, 1, -1, 0, 0, 0, 0.5], [0, 0, 0, 1, -1, 0, 0, 0.5],
               [0, 0, 0, 0, 1, -1, 0, 0.5], [0, 0, 0, 0, 0, 1, -1, 0.5],
               [0, 0, 0, 0, 0, 0, 1, 0.5], [0, 0, 0, 0, 0, 0, 0, 0.5]])


def _public(gen, points):
    q, r = kernels.qr_factor(gen)
    return kernels.nearest_point_batch(r, points @ q)


def _box_oracle(gen, x, start, basis=None):
    """Nearest points of ``x`` under the lexicographic tie rule, by exhaustive
    search of a box that holds every lattice point at least as close as the
    lattice point ``G @ start``: |w_i - (B^-1 x)_i| <= |row i of B^-1| * radius
    in the coordinates w of ``basis`` B (default G), another generator of the
    same lattice. Returns (lexicographically smallest nearest coordinates in
    G's basis, number of ties)."""
    basis = gen if basis is None else basis
    inv = np.linalg.inv(basis)
    centre = inv @ x
    radius = np.linalg.norm(x - gen @ start)
    half = radius * np.linalg.norm(inv, axis=1) + 1e-9
    axes = [np.arange(np.floor(c - h), np.ceil(c + h) + 1) for c, h in zip(centre, half)]
    box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(x))
    d2 = np.sum((box @ basis.T - x) ** 2, axis=1)
    ties = box[d2 <= d2.min() + 1e-12 * max(1.0, float(x @ x))]
    coords = np.rint(ties @ np.linalg.solve(gen, basis).T).astype(np.int64)
    return min(map(tuple, coords)), len(ties)


def _check_against_oracle(gen, points, basis=None):
    """Public path equals the oracle on every row; returns the tie count."""
    got = _public(gen, points)
    tied = 0
    for row in range(points.shape[0]):
        want, count = _box_oracle(gen, points[row], got[row], basis)
        assert tuple(got[row]) == want, (row, points[row])
        tied += count > 1
    return tied


@pytest.mark.parametrize("n", range(2, 9))
def test_public_path_matches_box_oracle(n, rng):
    gen = _conditioned_basis(rng, n)
    near = rng.normal(scale=2.0, size=(12, n)) @ gen.T
    far = rng.normal(scale=40.0, size=(4, n)) @ gen.T
    _check_against_oracle(gen, np.vstack([near, far]))
    # Many more rows against the scalar search, which shares the tie rule.
    x = rng.normal(scale=3.0, size=(3000, n)) @ gen.T
    assert np.array_equal(_public(gen, x), _run(gen, x))


def _unimodular(n):
    """A skewed basis of Z^n: upper triangular with ones on the diagonal."""
    return np.triu(np.ones((n, n))) + np.triu(np.ones((n, n)), 2)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("skewed", [False, True], ids=["identity", "skewed"])
def test_public_path_ties_on_zn_half_integers(n, skewed, rng):
    gen = _unimodular(n) if skewed else np.eye(n)
    points = rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], size=(24, n))
    points[0] = 0.5
    assert _check_against_oracle(gen, points, basis=np.eye(n)) >= 12


def _with_shifts(gen, points, shifts):
    """Each point plus each integer-coordinate shift of the lattice."""
    return np.vstack([points + gen @ np.asarray(s, dtype=np.float64) for s in shifts])


def test_public_path_ties_at_a2_voronoi_vertices_and_edges():
    angles = np.pi / 6.0 + np.pi / 3.0 * np.arange(6)
    vertices = np.stack([np.cos(angles), np.sin(angles)], axis=1) / np.sqrt(3.0)
    relevant = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]])
    edges = np.vstack([relevant, -relevant]) / 2.0
    points = _with_shifts(A2, np.vstack([vertices, edges]), [(0, 0), (1, 0), (-2, 3), (5, -1)])
    assert _check_against_oracle(A2, points) == points.shape[0]


def test_public_path_ties_at_d4_deep_holes():
    halves = np.array(list(product([-0.5, 0.5], repeat=4)))
    odd = np.vstack([np.eye(4), -np.eye(4), [[1.0, 1.0, 1.0, 0.0], [2.0, 1.0, 0.0, 0.0]]])
    midpoints = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, -0.5, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]])
    points = _with_shifts(D4, np.vstack([halves, odd, midpoints]), [(0, 0, 0, 0), (1, -2, 0, 3)])
    assert _check_against_oracle(D4, points) == points.shape[0]


@pytest.mark.parametrize("gen", [A2, D4], ids=["a2", "d4"])
def test_public_path_on_coset_leaders_of_a_nested_pair(gen):
    from latfun.lattices import Lattice, NestedPair, coset_leaders

    n = gen.shape[0]
    pair = NestedPair(Lattice(gen), Lattice(2.0 * gen))
    leaders = coset_leaders(pair)
    assert leaders.shape[0] == 2**n
    # Fine points of a box: many lie on the boundary of a coarse Voronoi cell.
    coords = np.array(list(product(range(-2, 3), repeat=n)), dtype=np.float64)
    points = np.vstack([leaders, coords @ gen.T])
    assert _check_against_oracle(2.0 * gen, points) > 0


def _benchmark_codec(gen, samples, rng):
    """A two-user codec built the way the benchmark builds its A2 and D4
    codecs (moment from ``second_moment``, fixed rng)."""
    from latfun import gaussian, lattices, simulate

    base = lattices.Lattice(gen)
    est = lattices.second_moment(base, samples, rng)
    return simulate.build_two_user_codec(
        gaussian.two_user_model(0.8, 0.8), 0.1, 0.06, n=gen.shape[0], margin=2.0,
        base_lattice=base.with_moment(est))


def _half_gains(r, y, coords, lift):
    """Half gains of every relevant step from the points ``coords``, the
    slicer's band of each row, and each row's squared residual."""
    e = y - coords @ r.T
    gains = np.hstack([e, np.ones((len(e), 1))]) @ lift.T
    band = 0.5 * kernels._TIE_TOL * np.maximum(1.0, np.sum(y * y, axis=1))
    return gains, band, np.sum(e * e, axis=1)


@pytest.mark.parametrize("gen, rows, samples", [(A2, 1024, 20_000), (D4, 256, 10_000)],
                         ids=["a2", "d4"])
def test_public_path_on_codec_shaped_ties(gen, rows, samples, monkeypatch):
    """One coarse-lattice call of a two-user codec: fine points of Gaussian
    targets, reduced modulo the incommensurate coarse lattice. Fine points
    on the coarse cell's symmetry axes are ties, each inside one facet, so
    the slicer settles them and none reaches the scalar search; only rows
    with two gains in the tie band, or in the guard band, would. This seed
    gives both calls one-facet ties."""
    from latfun import lattices

    rng = np.random.default_rng(1)
    codec = _benchmark_codec(gen, samples, rng)
    fine = lattices.nearest_point(codec.fine1, rng.normal(size=(rows, gen.shape[0])))
    seen, sent = [], []
    search, scalar = kernels.nearest_point_batch, kernels.closest_coords
    monkeypatch.setattr(kernels, "nearest_point_batch",
                        lambda *args: seen.append(args) or search(*args))
    monkeypatch.setattr(kernels, "closest_coords",
                        lambda r_mat, y: sent.append(y) or scalar(r_mat, y))
    got = lattices.nearest_point_coords(codec.coarse, fine)
    monkeypatch.undo()
    q, r = kernels.qr_factor(codec.coarse.gen)
    want = np.array([scalar(r, y) for y in fine @ q], dtype=np.int64)
    assert np.array_equal(got, want)
    # The kernel's frame is the base's: classify each row's tie there.
    (r_base, y, _, lift), = seen
    gains, band, resid_sq = _half_gains(r_base, np.asarray(y), got, lift)
    top = gains.max(axis=1)
    tied = top >= -band
    scalar_tol = kernels._SCALAR_TIE_TOL * np.maximum(1.0, resid_sq)
    gap = 2.0 * np.abs(top)
    one_facet = tied & (np.sum(gains >= -band[:, None], axis=1) == 1) & (
        (gap <= 0.5 * scalar_tol) | (gap >= 2.0 * scalar_tol))
    assert one_facet.sum() >= 1
    assert len(sent) == np.count_nonzero(tied & ~one_facet)


def _both_paths(r, y, relevant=None, lift=None):
    """The kernel's coordinates, those of a reference that sends every tie
    to the scalar search (the kernel before the one-facet rule), and the
    rows each sent to the scalar search."""
    if relevant is None:  # found by scalar searches of their own
        relevant = kernels.relevant_vectors(r)
    scalar = kernels.closest_coords
    runs = []
    for settle in (kernels._one_facet, lambda gains, top, tol, resid, coords, rows, rel: rows):
        sent = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_one_facet", settle)
            patch.setattr(kernels, "closest_coords",
                          lambda r_mat, row: sent.append(row) or scalar(r_mat, row))
            runs.append((kernels.nearest_point_batch(r, y, relevant, lift), len(sent)))
    (got, fast), (want, slow) = runs
    return got, want, fast, slow


@pytest.mark.parametrize("gen, trials, samples", [(A2, 2048, 20_000), (D4, 512, 10_000)],
                         ids=["a2", "d4"])
def test_one_facet_rule_on_recorded_codec_rows(gen, trials, samples, monkeypatch):
    """Every kernel call of benchmark-shaped codec runs, replayed with ties
    settled in the slicer and with every tie sent to the scalar search: the
    same coordinates, and fewer scalar searches."""
    from latfun import simulate

    codec = _benchmark_codec(gen, samples, np.random.default_rng([0, 0x5350]))
    calls = []
    search = kernels.nearest_point_batch
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "nearest_point_batch",
                      lambda *args: calls.append([np.array(a) for a in args]) or search(*args))
        for seed in range(4):
            simulate.run_two_user_experiment(codec, trials, seed)
    fast = slow = 0
    for r, y, relevant, lift in calls:
        got, want, sent_fast, sent_slow = _both_paths(r, y, relevant, lift)
        assert np.array_equal(got, want)
        fast, slow = fast + sent_fast, slow + sent_slow
    assert slow >= 4 and fast < slow / 2


def _facet_rows(gen, mults, shifts):
    """Rotated targets on the facet of each relevant vector v of ``gen``, at
    lattice points shifted by ``shifts``, each moved along v so that the
    squared-distance gap between the two nearest points is ``mult`` times
    the scalar search's tie tolerance (0 is the facet's midpoint)."""
    q, r = kernels.qr_factor(gen)
    relevant = kernels.relevant_vectors(r)
    rows = []
    for shift in shifts:
        centre = r @ np.asarray(shift, dtype=np.float64)
        for v in relevant @ r.T:
            vv = float(v @ v)
            tol = kernels._SCALAR_TIE_TOL * max(1.0, vv / 4.0)
            rows += [centre + v / 2.0 + (mult * tol / (2.0 * vv)) * v for mult in mults]
    return r, np.array(rows)


@pytest.mark.parametrize("gen", [A2, D4, _unimodular(3), _unimodular(5)],
                         ids=["a2", "d4", "z3-skewed", "z5-skewed"])
@settings(max_examples=40, deadline=None)
@given(mult=st.floats(-8.0, 8.0), shift=st.integers(-4, 4))
@example(mult=0.0, shift=0)
def test_one_facet_rule_at_facet_midpoints_and_guard_band(gen, mult, shift):
    """Targets inside one facet, moved off its midpoint along its relevant
    vector by a squared-distance gap of ``mult`` times the scalar search's
    tie tolerance: gaps up to half that tolerance, or from twice it, settle
    in the slicer; gaps in between (the guard band) go to the scalar search.
    All agree with it."""
    shifts = [(shift,) * gen.shape[0], (1,) + (shift,) * (gen.shape[0] - 1)]
    r, y = _facet_rows(gen, [mult], shifts)
    got, want, sent, _ = _both_paths(r, y)
    assert np.array_equal(got, want)
    # Margins of 10% around the band's edges absorb the gains' rounding.
    if abs(mult) <= 0.45 or abs(mult) >= 2.2:
        assert sent == 0
    elif 0.55 <= abs(mult) <= 1.8:
        assert sent == len(y)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_one_facet_rule_on_skewed_zn_half_integers(n, rng):
    """Half-integer targets in a skewed basis of Z^n: one half coordinate is
    one facet (settled in the slicer), two or more are a lower face (sent to
    the scalar search); both agree with it."""
    gen = _unimodular(n)
    q, r = kernels.qr_factor(gen)
    points = rng.integers(-3, 4, size=(200, n)).astype(float)
    halves = rng.integers(0, 3, size=200)  # how many coordinates sit on a half
    for row, count in zip(points, halves):
        row[rng.choice(n, size=count, replace=False)] += 0.5
    got, want, sent, _ = _both_paths(r, points @ q)
    assert np.array_equal(got, want)
    assert sent == np.count_nonzero(halves >= 2)


def test_one_facet_rule_sends_two_tied_gains_to_the_scalar_search():
    """The Voronoi vertices of A2 (three nearest points, two tied gains) and
    D4's deep holes go to the scalar search."""
    q, r = kernels.qr_factor(A2)
    angles = np.pi / 6.0 + np.pi / 3.0 * np.arange(6)
    vertices = np.stack([np.cos(angles), np.sin(angles)], axis=1) / np.sqrt(3.0)
    points = _with_shifts(A2, vertices, [(0, 0), (2, -1)])
    got, want, sent, _ = _both_paths(r, points @ q)
    assert np.array_equal(got, want) and sent == len(points)
    q, r = kernels.qr_factor(D4)
    holes = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5]])
    got, want, sent, _ = _both_paths(r, holes @ q)
    assert np.array_equal(got, want) and sent == len(holes)


def test_public_path_blocks_keep_row_order(monkeypatch, rng):
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
    x = rng.choice([-0.5, 0.0, 0.5, 1.0], size=(50, 2)) + rng.normal(scale=1e-3, size=(50, 2)) * (
        rng.random((50, 1)) < 0.5)
    assert np.array_equal(_public(A2, x), _run(A2, x))
    assert _public(A2, np.zeros((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("gen, count", [
    *[(np.eye(n), 2 * n) for n in range(1, 9)],
    (_unimodular(5), 10),
    (A2, 6),
    (D4, 24),
    (E8, 240),
], ids=[*[f"z{n}" for n in range(1, 9)], "z5-skewed", "a2", "d4", "e8"])
def test_relevant_vector_counts(gen, count):
    _, r = kernels.qr_factor(gen)
    rel = kernels.relevant_vectors(r)
    assert rel.shape == (count, gen.shape[0])
    assert len({tuple(v) for v in rel}) == count
    # Scale-free: the same integer coordinates at any scale.
    assert np.array_equal(kernels.relevant_vectors(3.7 * r), rel)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 12))
@example(data=None, n=8, m=3)
def test_axis_zero_sum_of_squares_is_the_sequential_row_sum(data, n, m):
    """The slicer's tie tolerance takes |y|^2 of its column-major block y,
    shape (n, m) and C-contiguous, as ``np.square(y).sum(axis=0)``: numpy
    adds the rows in order, so every bit is that of the sequential sum,
    whatever the magnitudes (5e-324 to 1e300, where squares underflow to 0
    or overflow to inf)."""
    if data is None:  # the extreme magnitudes side by side
        values = [5e-324, 1e300, 1e-160, 1.5e154, 3.0, 2.2250738585072014e-308] * 4
    else:
        values = data.draw(st.lists(st.floats(5e-324, 1e300), min_size=n * m, max_size=n * m))
        signs = data.draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
        values = [-v if neg else v for v, neg in zip(values, signs)]
    y = np.array(values[:n * m]).reshape(n, m)
    with np.errstate(over="ignore"):
        got = np.square(y).sum(axis=0)
        want = y[0] * y[0]
        for i in range(1, n):
            want += y[i] * y[i]
    assert got.tobytes() == want.tobytes()
