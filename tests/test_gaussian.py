"""MMSE algebra: estimation coefficients, residual recursion, final combine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfun import (
    DegenerateSideInfo,
    PartitionPlan,
    SideInfoModel,
    SingularObservationGram,
    SourceModel,
    VarianceOverflow,
    final_estimator,
    function_variance,
    independent_side_model,
    mmse_coeffs,
    noisy_function_side_model,
    sigma_theta,
    single_cell_plan,
    singleton_plan,
    two_user_model,
)
from latfun.gaussian import (
    _checked_variance,
    _two_user_arrays,
    _two_user_variances,
    require_informative,
)


def _sample_model(model, rng, n):
    lmat = np.linalg.cholesky(model.cov + 1e-12 * np.eye(model.k))
    return rng.standard_normal((n, model.k)) @ lmat.T


# ---------------------------------------------------------------------------
# function_variance


def test_function_variance_two_user():
    assert function_variance(two_user_model(0.8, 0.8)) == pytest.approx(0.36)


def test_function_variance_single_coefficient():
    model = SourceModel(np.array([[1.0, 0.8], [0.8, 1.0]]), np.array([1.0, 0.0]))
    assert function_variance(model) == pytest.approx(1.0)


def test_function_variance_degenerate():
    model = SourceModel(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0]))
    assert function_variance(model) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# mmse_coeffs


def test_mmse_single_observation_closed_form():
    model = two_user_model(0.8, 0.8)
    w, err = mmse_coeffs(model, [0.0, -0.8], [([1.0, 0.0], 0.1)])
    assert w == pytest.approx([-0.8 * 0.8 / 1.1])
    assert err == pytest.approx(0.64 * (1.0 - 0.64 / 1.1))


def test_mmse_error_matches_monte_carlo(rng):
    # Oracle: empirical squared error of the analytic estimator.
    model = two_user_model(0.8, 0.8)
    w, err = mmse_coeffs(model, [0.0, -0.8], [([1.0, 0.0], 0.1)])
    x = _sample_model(model, rng, 1_000_000)
    s = x[:, 0] + rng.normal(scale=math.sqrt(0.1), size=len(x))
    target = -0.8 * x[:, 1]
    resid = (target - w[0] * s) ** 2
    se = np.std(resid) / math.sqrt(len(resid))
    assert abs(np.mean(resid) - err) < 3 * se


def test_mmse_no_observations():
    model = two_user_model(0.8, 0.8)
    w, err = mmse_coeffs(model, model.coeffs, [])
    assert w.size == 0
    assert err == pytest.approx(0.36)


def test_mmse_singular_gram_raises():
    model = two_user_model(0.5, 1.0)
    obs = [([1.0, 0.0], 0.0), ([1.0, 0.0], 0.0)]
    with pytest.raises(SingularObservationGram):
        mmse_coeffs(model, model.coeffs, obs)


def test_mmse_more_observations_never_hurt(rng):
    for _ in range(20):
        k = int(rng.integers(2, 5))
        a = rng.normal(size=(k, k))
        cov = a @ a.T + 0.2 * np.eye(k)
        model = SourceModel(cov, rng.normal(size=k))
        obs = []
        prev = math.inf
        for _ in range(4):
            obs.append((rng.normal(size=k), float(rng.uniform(0.05, 1.0))))
            _, err = mmse_coeffs(model, model.coeffs, obs)
            assert err <= prev + 1e-10
            prev = err


# ---------------------------------------------------------------------------
# sigma_theta


def test_sigma_theta_first_cell_is_prior_variance():
    model = two_user_model(0.8, 0.8)
    st = sigma_theta(model, singleton_plan(2, (0.1, 0.1)))
    assert st[(0,)] == pytest.approx(1.0)  # Var(X1)


def test_sigma_theta_second_cell_value():
    model = two_user_model(0.8, 0.8)
    st = sigma_theta(model, singleton_plan(2, (0.1, 0.1)))
    assert st[(1,)] == pytest.approx(0.64 - 0.4096 / 1.1)


def test_sigma_theta_first_cell_independent_of_q():
    model = two_user_model(0.7, 1.2)
    a = sigma_theta(model, singleton_plan(2, (0.01, 0.01)))
    b = sigma_theta(model, singleton_plan(2, (5.0, 5.0)))
    assert a[(0,)] == pytest.approx(b[(0,)])


def test_sigma_theta_single_cell_is_function_variance():
    model = two_user_model(0.8, 0.8)
    st = sigma_theta(model, single_cell_plan(2, (0.1, 0.1)))
    assert st[(0, 1)] == pytest.approx(0.36)


def test_sigma_theta_reverse_order():
    model = two_user_model(0.8, 0.8)
    plan = PartitionPlan(((0,), (1,)), (1, 0), (0.1, 0.1))
    st = sigma_theta(model, plan)
    assert st[(1,)] == pytest.approx(0.64)  # Var(-c X2), decoded first
    assert st[(0,)] == pytest.approx(1.0 - (0.8 * 0.64) ** 2 / 0.64 / (0.64 + 0.1))


# ---------------------------------------------------------------------------
# final_estimator


def test_final_estimator_single_cell_closed_form():
    model = two_user_model(0.8, 0.8)
    d = 0.1
    sz2 = 0.36
    qa = sz2 * d / (sz2 - d)
    weights, resid = final_estimator(model, single_cell_plan(2, (qa / 2, qa / 2)))
    assert resid == pytest.approx(d, abs=1e-12)
    assert weights == pytest.approx([sz2 / (sz2 + qa)])


def test_final_estimator_two_singletons_value(rng):
    model = two_user_model(0.8, 0.8)
    _, resid = final_estimator(model, singleton_plan(2, (0.1, 0.1)))
    assert resid == pytest.approx(0.04968 / 0.4044, abs=1e-12)
    # Monte Carlo cross-check of the same quantity.
    weights, _ = final_estimator(model, singleton_plan(2, (0.1, 0.1)))
    x = _sample_model(model, rng, 1_000_000)
    z1 = x[:, 0] + rng.normal(scale=math.sqrt(0.1), size=len(x))
    z2 = -0.8 * x[:, 1] + rng.normal(scale=math.sqrt(0.1), size=len(x))
    z = x[:, 0] - 0.8 * x[:, 1]
    resid_mc = (z - weights[0] * z1 - weights[1] * z2) ** 2
    se = np.std(resid_mc) / math.sqrt(len(resid_mc))
    assert abs(np.mean(resid_mc) - resid) < 3 * se


def test_final_estimator_noiseless_limit():
    model = two_user_model(0.8, 0.8)
    _, resid = final_estimator(model, singleton_plan(2, (1e-9, 1e-9)))
    assert resid < 1e-6


def test_analytic_error_matches_empirical_small_models(rng):
    for _ in range(3):
        k = int(rng.integers(2, 5))
        a = rng.normal(size=(k, k))
        cov = a @ a.T + 0.3 * np.eye(k)
        model = SourceModel(cov, rng.normal(size=k))
        q = tuple(float(v) for v in rng.uniform(0.05, 0.5, size=k))
        weights, resid = final_estimator(model, singleton_plan(k, q))
        x = _sample_model(model, rng, 1_000_000)
        z = x @ model.coeffs
        obs = np.stack(
            [model.coeffs[i] * x[:, i] + rng.normal(scale=math.sqrt(q[i]), size=len(x))
             for i in range(k)],
            axis=1,
        )
        err = (z - obs @ weights) ** 2
        se = np.std(err) / math.sqrt(len(err))
        assert abs(np.mean(err) - resid) < 3 * se


# ---------------------------------------------------------------------------
# plans and models


def test_plan_validation():
    with pytest.raises(ValueError):
        PartitionPlan(((0,), (0, 1)), (0, 1), (0.1, 0.1))  # overlap
    with pytest.raises(ValueError):
        PartitionPlan(((0,),), (0,), (0.1, 0.1))  # does not cover
    with pytest.raises(ValueError):
        PartitionPlan(((0,), (1,)), (0, 0), (0.1, 0.1))  # order not a permutation
    with pytest.raises(ValueError):
        PartitionPlan(((0,), (1,)), (0, 1), (0.1, 0.0))  # nonpositive q


def test_plan_json_roundtrip():
    plan = PartitionPlan(((0, 2), (1,)), (1, 0), (0.1, 0.2, 0.3))
    back = PartitionPlan.from_json(plan.to_json())
    assert back == plan
    assert back.q_cell((0, 2)) == pytest.approx(0.4)


def test_model_validation():
    with pytest.raises(ValueError):
        SourceModel(np.array([[1.0, 0.5], [0.4, 1.0]]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        SourceModel(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        two_user_model(0.0, 0.8).require_two_user()
    with pytest.raises(ValueError, match="covariance must be square"):
        SourceModel(np.ones((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="coefficient length must match"):
        SourceModel(np.eye(2), np.array([1.0, -1.0, 0.5]))



def test_model_keeps_read_only_copies_of_its_arrays():
    cov = np.array([[1.0, 0.8], [0.8, 1.0]])
    coeffs = np.array([1.0, -0.8])
    model = SourceModel(cov, coeffs)
    var_z = function_variance(model)
    cov[0, 1] = cov[1, 0] = 0.1
    coeffs[1] = 5.0
    assert function_variance(model) == var_z == float(model.coeffs @ model.cov @ model.coeffs)
    assert model.rho == 0.8 and model.c == 0.8
    with pytest.raises(ValueError):
        model.cov[0, 0] = 2.0
    with pytest.raises(ValueError):
        model.coeffs[0] = 2.0
    si = noisy_function_side_model(0.8, 0.8, 0.1)
    assert si.source_model is si.source_model
    with pytest.raises(ValueError):
        si.cov[2, 2] = 0.0


@pytest.mark.parametrize("cov, coeffs, message", [
    (np.eye(3), [1.0, -0.5, 0.2], "operation requires a two-user model"),
    ([[2.0, 0.5], [0.5, 1.0]], [1.0, -0.5], "two-user closed forms require unit source variances"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, -0.5], "two-user closed forms require correlation in (0, 1)"),
    ([[1.0, 0.5], [0.5, 1.0]], [2.0, -0.5], "two-user closed forms require coefficients (1, -c)"),
])
def test_require_two_user_messages(cov, coeffs, message):
    model = SourceModel(np.array(cov), np.array(coeffs))
    for check in (model.require_two_user, lambda: model.rho, lambda: model.c):
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == message


@pytest.mark.filterwarnings("error")
def test_overflowing_function_variance_rejected():
    with pytest.raises(VarianceOverflow):
        two_user_model(0.8, 1e200)
    with pytest.raises(VarianceOverflow):
        SourceModel(np.eye(3), np.array([1.0, 1e155, 1e155]))
    with pytest.raises(VarianceOverflow):
        noisy_function_side_model(0.8, 1e200, 0.1)
    # Var Z = 1e300 is finite, but Cov(Z, Y)^2 in the side regression is not.
    with pytest.raises(VarianceOverflow):
        noisy_function_side_model(0.8, 1e150, 0.1).innovations_variance()
    assert function_variance(two_user_model(0.8, 1e150)) == pytest.approx(1e300)


_RHO = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0 - 1e-15, 1.0, exclude_max=True),
)
_C_MAGNITUDE = st.one_of(
    st.floats(5e-324, 1e160),
    st.floats(-323.3, 160.0).map(lambda e: 10.0 ** e),
)
_C = st.builds(lambda m, sign: sign * m, _C_MAGNITUDE, st.sampled_from([-1.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_RHO, _C), min_size=1, max_size=24))
def test_stacked_two_user_variances_are_the_one_model_ones(cells):
    # the sweeps pass the columns of one (cells, 2) array, so strided views
    rho, c = np.array(cells).T
    stacked = _two_user_variances(rho, c)
    for k, (r, v) in enumerate(cells):
        try:
            want = np.float64(_checked_variance(*_two_user_arrays(r, v)))
        except VarianceOverflow:
            assert not np.isfinite(stacked[k])
            continue
        assert stacked[k].view(np.int64) == want.view(np.int64), (r, v)


# ---------------------------------------------------------------------------
# side information


def test_independent_side_variable_changes_nothing():
    si = independent_side_model(0.8, 0.8)
    assert si.innovations_variance() == pytest.approx(0.36)
    beta, _ = si.side_regression()
    assert beta == pytest.approx(0.0)


@pytest.mark.parametrize("cov, coeffs, message", [
    (np.eye(2), [1.0, -0.8], "3 x 3 covariance"),
    (np.eye(3), [1.0, -0.8, 0.5], "2 function coefficients"),
], ids=["cov-2x2", "three-coeffs"])
def test_side_info_model_shape_errors(cov, coeffs, message):
    with pytest.raises(ValueError, match=message):
        SideInfoModel(cov, np.array(coeffs))


def test_side_regression_without_side_variance():
    # Var Y = 0: Y carries nothing, so beta = 0 and the innovations are all of Z.
    cov = np.array([[1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 0.0]])
    si = SideInfoModel(cov, np.array([1.0, -0.8]))
    assert si.side_regression() == (0.0, si.function_variance())


def test_noisy_function_side_variable():
    si = noisy_function_side_model(0.8, 0.8, 0.1)
    assert si.innovations_variance() == pytest.approx(0.36 * 0.1 / 0.46)


def test_degenerate_side_information_rejected():
    si = noisy_function_side_model(0.8, 0.8, 0.0)
    with pytest.raises(DegenerateSideInfo):
        require_informative(si)
