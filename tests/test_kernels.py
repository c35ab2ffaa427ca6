"""Closest-point kernel: brute-force oracle agreement for the scalar search
and for the public path."""

from itertools import product

import numpy as np
import pytest

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


@pytest.mark.parametrize("gen, rows, samples", [(A2, 1024, 20_000), (D4, 256, 10_000)],
                         ids=["a2", "d4"])
def test_public_path_on_codec_shaped_ties(gen, rows, samples, monkeypatch):
    """One coarse-lattice call of a two-user codec, built the way the benchmark
    builds its A2 and D4 codecs (moment from ``second_moment``, fixed rng):
    fine points of Gaussian targets, reduced modulo the incommensurate coarse
    lattice. Fine points on the coarse cell's symmetry axes are ties: a
    256-row D4 call holds about one on average, and this seed gives both
    calls some."""
    from latfun import gaussian, lattices, simulate

    n = gen.shape[0]
    base = lattices.Lattice(gen)
    rng = np.random.default_rng(1)
    est = lattices.second_moment(base, samples, rng)
    codec = simulate.build_two_user_codec(
        gaussian.two_user_model(0.8, 0.8), 0.1, 0.06, n=n, margin=2.0,
        base_lattice=base.with_moment(est))
    fine = lattices.nearest_point(codec.fine1, rng.normal(size=(rows, n)))
    qt, r, _ = lattices._sphere_context(codec.coarse)
    sent = []
    scalar = kernels.closest_coords

    def counted(r_mat, y):
        sent.append(y)
        return scalar(r_mat, y)

    monkeypatch.setattr(kernels, "closest_coords", counted)
    got = lattices.nearest_point_coords(codec.coarse, fine)
    monkeypatch.undo()
    want = np.array([scalar(r, y) for y in fine @ qt.T], dtype=np.int64)
    assert np.array_equal(got, want)
    assert len(sent) >= 1


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
