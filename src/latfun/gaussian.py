"""Jointly Gaussian source models and exact linear-MMSE algebra.

Everything here is closed-form covariance arithmetic: estimation
coefficients, residual variances of partially decoded linear functions, and
the final combining stage. Sampling appears only in test oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSideInfo, SingularObservationGram, VarianceOverflow

_COND_GUARD = 1e-10
_SYM_TOL = 1e-12
_EIG_TOL = -1e-10


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy, so values derived from it cannot go stale."""
    out = np.array(values, dtype=np.float64)
    out.setflags(write=False)
    return out


def _json_values(key: str, values, number: bool = False):
    """``values`` read from a JSON file's ``key``, each a JSON integer, or
    with ``number`` a JSON integer or float; a JSON true or false, a string
    or a fraction where an integer belongs is a TypeError naming ``key``."""
    types = (int, float) if number else (int,)
    for value in values:
        if type(value) not in types:
            kind = "numbers" if number else "integers"
            raise TypeError(f"{key!r} takes JSON {kind} only, got {value!r}")
    return tuple(values)


def _check_covariance(cov: np.ndarray, coeffs: np.ndarray):
    """Checks shared by the source models: finite entries and a symmetric
    positive semidefinite covariance."""
    if not (np.isfinite(cov).all() and np.isfinite(coeffs).all()):
        raise ValueError("covariance and coefficients must be finite")
    if np.max(np.abs(cov - cov.T)) > _SYM_TOL * max(1.0, np.max(np.abs(cov))):
        raise ValueError("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(cov)  # ascending
    if eigs[0] < _EIG_TOL:
        raise ValueError("covariance must be positive semidefinite")


def _checked_variance(cov: np.ndarray, coeffs: np.ndarray) -> float:
    """The function variance c Sigma c^T, which must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(coeffs @ cov @ coeffs)
    if not math.isfinite(var):
        raise VarianceOverflow(
            "the function variance c Sigma c^T overflows; coefficients and covariance "
            "must keep it below about 1.8e308"
        )
    return var


def _two_user_problem(cov: np.ndarray, coeffs: np.ndarray) -> Optional[str]:
    """Why the two-user closed forms do not apply to a model, or None."""
    if cov.shape[0] != 2:
        return "operation requires a two-user model"
    if abs(cov[0, 0] - 1.0) > 1e-12 or abs(cov[1, 1] - 1.0) > 1e-12:
        return "two-user closed forms require unit source variances"
    if not 0.0 < cov[0, 1] < 1.0:
        return "two-user closed forms require correlation in (0, 1)"
    if abs(coeffs[0] - 1.0) > 1e-12:
        return "two-user closed forms require coefficients (1, -c)"
    return None


@dataclass(frozen=True, eq=False)
class SourceModel:
    """K jointly Gaussian sources and the linear function to reconstruct.

    ``cov`` is the K x K source covariance and ``coeffs`` the row vector c of
    the target function Z = c . X. Both are stored as read-only copies, so
    the caller's arrays stay writable and editing them later changes nothing
    here. What the model derives from them is computed once, at
    construction: the function variance (``_variance``) and the outcome of
    the two-user check (``_two_user_error``, None when it passes).
    Equality is identity (``eq=False``), so a model is hashable; an
    equality of its array fields would raise, not answer.
    """

    cov: np.ndarray
    coeffs: np.ndarray
    _variance: float = field(default=0.0, init=False, repr=False, compare=False)
    _two_user_error: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = _frozen(self.cov)
        coeffs = _frozen(self.coeffs).reshape(-1)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        if cov.shape[0] != coeffs.shape[0]:
            raise ValueError("coefficient length must match covariance size")
        _check_covariance(cov, coeffs)
        object.__setattr__(self, "_variance", _checked_variance(cov, coeffs))
        object.__setattr__(self, "_two_user_error", _two_user_problem(cov, coeffs))
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def k(self) -> int:
        return self.cov.shape[0]

    @property
    def rho(self) -> float:
        """Correlation coefficient, defined for unit-variance two-user models."""
        self.require_two_user()
        return float(self.cov[0, 1])

    @property
    def c(self) -> float:
        """Scale of the second source in the two-user form Z = X1 - c X2."""
        self.require_two_user()
        return float(-self.coeffs[1])

    def require_two_user(self):
        """Raise ValueError unless the two-user closed forms apply: two
        unit-variance sources, correlation in (0, 1), coefficients (1, -c)."""
        if self._two_user_error is not None:
            raise ValueError(self._two_user_error)


def _two_user_arrays(rho: float, c: float) -> Tuple[np.ndarray, np.ndarray]:
    """Covariance and coefficients of ``two_user_model(rho, c)``."""
    return np.array([[1.0, rho], [rho, 1.0]]), np.array([1.0, -float(c)])


def _two_user_variances(rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Var(Z) of ``two_user_model(rho[k], c[k])`` for every k, bit for bit:
    numpy hands each item of a stacked product of C-contiguous arrays to the
    routine of the one-model product (strided ones may round otherwise). An
    entry is not finite where that model raises VarianceOverflow."""
    one = np.ones_like(rho)
    cov = np.array([one, rho, rho, one]).T.copy().reshape(-1, 2, 2)
    co = np.array([one, -c]).T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        return (co[:, None, :] @ cov @ co[:, :, None])[:, 0, 0]


def two_user_model(rho: float, c: float) -> SourceModel:
    """Unit-variance pair with correlation rho, target Z = X1 - c X2."""
    return SourceModel(*_two_user_arrays(rho, c))


@dataclass(frozen=True)
class PartitionPlan:
    """Partition of the user set, decode order, and per-user noise variances.

    ``partition`` lists disjoint nonempty cells covering 0..K-1;
    ``decode_order`` gives cell indices in decoding order; ``q`` holds one
    positive quantization-noise variance per user.
    """

    partition: Tuple[Tuple[int, ...], ...]
    decode_order: Tuple[int, ...]
    q: Tuple[float, ...]

    def __post_init__(self):
        part = tuple(tuple(int(i) for i in cell) for cell in self.partition)
        order = tuple(int(i) for i in self.decode_order)
        q = tuple(float(v) for v in self.q)
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "decode_order", order)
        object.__setattr__(self, "q", q)
        k = len(q)
        seen = [i for cell in part for i in cell]
        if not part or any(len(cell) == 0 for cell in part):
            raise ValueError("cells must be nonempty")
        if sorted(seen) != list(range(k)):
            raise ValueError("cells must be disjoint and cover all users")
        if sorted(order) != list(range(len(part))):
            raise ValueError("decode order must be a permutation of the cells")
        if not all(math.isfinite(v) and v > 0 for v in q):
            raise ValueError(f"all q values must be positive and finite, got {list(q)}")

    @property
    def k(self) -> int:
        return len(self.q)

    def q_cell(self, cell: Tuple[int, ...]) -> float:
        return float(sum(self.q[i] for i in cell))

    def cells_in_order(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(self.partition[i] for i in self.decode_order)

    def to_json(self) -> str:
        return json.dumps(
            {
                "partition": [list(cell) for cell in self.partition],
                "order": list(self.decode_order),
                "q": list(self.q),
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "PartitionPlan":
        payload = json.loads(text)
        return PartitionPlan(
            tuple(_json_values("partition", cell) for cell in payload["partition"]),
            _json_values("order", payload["order"]),
            _json_values("q", payload["q"], number=True),
        )


def single_cell_plan(k: int, q: Sequence[float]) -> PartitionPlan:
    """All users in one cell (direct reconstruction of the full function)."""
    return PartitionPlan((tuple(range(k)),), (0,), tuple(q))


def singleton_plan(k: int, q: Sequence[float]) -> PartitionPlan:
    """Each user in its own cell, decoded in index order."""
    return PartitionPlan(tuple((i,) for i in range(k)), tuple(range(k)), tuple(q))


# ---------------------------------------------------------------------------
# MMSE algebra


def function_variance(model: SourceModel) -> float:
    """Variance of the target function, c Sigma c^T, as computed once when
    the model was built."""
    return model._variance


def mmse_coeffs(
    model: SourceModel,
    target: Sequence[float],
    observations: Sequence[Tuple[Sequence[float], float]],
) -> Tuple[np.ndarray, float]:
    """Linear MMSE of t.X from noisy linear observations.

    Each observation is a pair ``(a_j, v_j)`` describing S_j = a_j . X + N_j
    with independent zero-mean noise of variance v_j. Returns the estimator
    coefficients w (so that t.X is estimated by w . S) and the residual
    variance. Raises ``SingularObservationGram`` when the observation
    covariance is singular beyond the conditioning guard.
    """
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    prior = float(t @ model.cov @ t)
    if len(observations) == 0:
        return np.zeros(0), prior
    a = np.asarray([np.asarray(obs[0], dtype=np.float64) for obs in observations])
    v = np.asarray([float(obs[1]) for obs in observations])
    gram = a @ model.cov @ a.T + np.diag(v)
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= _COND_GUARD * sv[0]:
        raise SingularObservationGram(
            f"observation covariance condition {sv[0] / max(sv[-1], 1e-300):.3e} exceeds guard"
        )
    cross = a @ model.cov @ t
    w = np.linalg.solve(gram, cross)
    err = prior - float(w @ cross)
    return w, max(err, 0.0)


def cell_coeff_vector(model: SourceModel, cell: Tuple[int, ...]) -> np.ndarray:
    """Coefficient vector of the partial function carried by one cell."""
    t = np.zeros(model.k)
    for i in cell:
        t[i] = model.coeffs[i]
    return t


def _sequential_mmse(model: SourceModel, plan: PartitionPlan):
    """``{cell: (weights, residual)}``, in decode order: the MMSE of each
    cell's partial function from the cells decoded before it (see
    ``sigma_theta`` and ``decoder_coeff_map``)."""
    out = {}
    obs = []
    for cell in plan.cells_in_order():
        t = cell_coeff_vector(model, cell)
        out[cell] = mmse_coeffs(model, t, obs)
        obs.append((t, plan.q_cell(cell)))
    return out


def sigma_theta(model: SourceModel, plan: PartitionPlan):
    """Residual variance of each cell's partial function at decode time.

    Cell A sees the previously decoded partial functions through their test
    channels Z_B + Q_B (noise variance = the cell's total q); its value is
    the MMSE residual of Z_A from those observations. The first decoded cell
    has no side information, so its value is Var(Z_A). Returns a dict keyed
    by cell tuple.
    """
    return {cell: err for cell, (_, err) in _sequential_mmse(model, plan).items()}


def decoder_coeff_map(model: SourceModel, plan: PartitionPlan):
    """Per-cell MMSE combining weights over earlier cells, keyed by cell.

    For each cell A the weights multiply the previously decoded partial
    functions (in decode order) to form the side-information predictor of
    Z_A used by the sequential decoder.
    """
    return {cell: w for cell, (w, _) in _sequential_mmse(model, plan).items()}


def final_estimator(model: SourceModel, plan: PartitionPlan) -> Tuple[np.ndarray, float]:
    """MMSE combining of all noisy partial functions into the target.

    Returns (weights aligned with ``plan.partition`` order, residual
    distortion). The observations are Z_A + Q_A for every cell A.
    """
    obs = [
        (cell_coeff_vector(model, cell), plan.q_cell(cell)) for cell in plan.partition
    ]
    w, err = mmse_coeffs(model, model.coeffs, obs)
    return w, err


# ---------------------------------------------------------------------------
# Side information


@dataclass(frozen=True)
class SideInfoModel:
    """Two sources plus one decoder side variable, jointly Gaussian.

    ``cov`` is the 3 x 3 covariance of (X1, X2, Y) and ``coeffs`` the target
    function coefficients (c1, c2) for Z = c1 X1 + c2 X2. Both are stored as
    read-only copies, and the ``SourceModel`` of (X1, X2) is built once, at
    construction.
    """

    cov: np.ndarray
    coeffs: np.ndarray
    _source: Optional[SourceModel] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = _frozen(self.cov)
        coeffs = _frozen(self.coeffs).reshape(-1)
        if cov.shape != (3, 3):
            raise ValueError("side-information model needs a 3 x 3 covariance")
        if coeffs.shape != (2,):
            raise ValueError("side-information model needs 2 function coefficients")
        _check_covariance(cov, coeffs)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "coeffs", coeffs)
        # its construction checks the function variance
        object.__setattr__(self, "_source", SourceModel(cov[:2, :2], coeffs))

    @property
    def source_model(self) -> SourceModel:
        """The two sources and the target function, without Y (built once)."""
        return self._source

    def function_variance(self) -> float:
        return function_variance(self.source_model)

    def side_regression(self) -> Tuple[float, float]:
        """(beta, innovations variance): E(Z|Y) = beta Y and Var(Z - E(Z|Y)).

        A noiseless degenerate side variable (Var Y = 0) contributes nothing,
        matching the no-side-information limit.
        """
        cz = np.concatenate([self.coeffs, [0.0]])
        var_z = float(cz @ self.cov @ cz)
        var_y = float(self.cov[2, 2])
        cov_zy = float(cz @ self.cov[:, 2])
        if var_y <= 0.0:
            return 0.0, var_z
        beta = cov_zy / var_y
        try:
            explained = cov_zy**2 / var_y
        except OverflowError:
            raise VarianceOverflow("Cov(Z, Y)^2 overflows; scale the coefficients down") from None
        return beta, max(var_z - explained, 0.0)

    def innovations_variance(self) -> float:
        _, s = self.side_regression()
        return s


def independent_side_model(rho: float, c: float) -> SideInfoModel:
    """Unit-variance side variable independent of both sources (the plain pair)."""
    cov = np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return SideInfoModel(cov, np.array([1.0, -float(c)]))


def noisy_function_side_model(rho: float, c: float, noise_var: float) -> SideInfoModel:
    """Side variable Y = Z + W with independent noise W of the given variance.

    ``noise_var = 0`` makes Y determine Z exactly; downstream region and
    codec constructions reject that as degenerate side information.
    """
    base = two_user_model(rho, c)
    sz2 = function_variance(base)
    cz = base.cov @ base.coeffs  # Cov(X_i, Z)
    cov = np.zeros((3, 3))
    cov[:2, :2] = base.cov
    cov[:2, 2] = cz
    cov[2, :2] = cz
    cov[2, 2] = sz2 + float(noise_var)
    return SideInfoModel(cov, base.coeffs)


def require_informative(si_model: SideInfoModel) -> float:
    """Innovations variance, raising when side information is degenerate."""
    s = si_model.innovations_variance()
    if s <= 1e-12 * max(si_model.function_variance(), 1.0):
        raise DegenerateSideInfo("side information determines the function exactly")
    return s
