import math
import warnings

import numpy as np
import pytest

import levyreg.marcus as marcus_mod
from levyreg.flow_engine import ScalarField, solve_random_ode
from levyreg.marcus import (
    MAX_FLOW_SUBSTEPS,
    DiffusionField,
    FlowDivergence,
    _flow_once,
    chain_rule_residual,
    flow_substeps,
    flow_with_sensitivity,
    jump_flow_phi,
    marcus_remainder_rho,
    marcus_solve,
)
from levyreg.path_sampler import LevyPath


def make_path(jumps, horizon=1.0, drift=0.0):
    return LevyPath(horizon, drift,
                    np.array([t for t, _ in jumps]),
                    np.array([s for _, s in jumps]))


CONST_ONE = DiffusionField(lambda x: 1.0, lambda x: 0.0, min_abs=1.0)
LINEAR_SIGMA = DiffusionField(lambda x: x, lambda x: 1.0)
QUAD_SIGMA = DiffusionField(lambda x: 1.0 + x * x, lambda x: 2.0 * x, min_abs=1.0)
ZERO_FIELD = ScalarField(lambda x: 0.0, lambda x: 0.0)


class TestJumpFlow:
    def test_constant_field_translation(self):
        sigma = DiffusionField(lambda x: 2.5, lambda x: 0.0, min_abs=2.5)
        assert jump_flow_phi(sigma, 1.0, 0.4) == pytest.approx(2.0, abs=1e-12)

    def test_linear_field_exponential(self):
        assert jump_flow_phi(LINEAR_SIGMA, 2.0, 0.5) == pytest.approx(
            2.0 * math.exp(0.5), rel=1e-10)

    def test_quadratic_field_tangent(self):
        # separable ODE: phi(0, u) = tan(u); cross-check by half-step refinement
        got = jump_flow_phi(QUAD_SIGMA, 0.0, 0.3, tol=1e-12)
        assert got == pytest.approx(math.tan(0.3), rel=1e-10)
        finer = jump_flow_phi(QUAD_SIGMA, 0.0, 0.3, tol=1e-14)
        assert got == pytest.approx(finer, rel=1e-10)

    def test_blow_up_reported(self):
        with pytest.raises(FlowDivergence):
            jump_flow_phi(QUAD_SIGMA, 0.0, 2.0)

    def test_substeps_of_floats_and_arrays_agree(self):
        us = [0.0, -0.0, 0.03, 0.4, -0.4, 0.40000001, 1.0, -3.7, 1e3]
        want = [max(8, math.ceil(abs(u) / 0.05)) for u in us]
        assert [flow_substeps(u) for u in us] == want
        assert all(type(flow_substeps(u)) is int for u in us)
        got = flow_substeps(np.array(us))
        assert got.dtype == np.int64 and got.tolist() == want

    def test_non_finite_or_huge_size_is_not_run(self):
        # 1e300 / 0.05 cast to int64 wrapped to INT64_MIN; 4.6e17 is about where
        # the cast starts to go wrong
        edge = MAX_FLOW_SUBSTEPS * 0.05
        us = [math.inf, -math.inf, math.nan, 1.7e308, 1e300, -4.6e17,
              np.nextafter(edge, math.inf)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [flow_substeps(u) for u in us] == [0] * 7
            assert flow_substeps(np.array(us)).tolist() == [0] * 7
            assert flow_substeps(edge) == MAX_FLOW_SUBSTEPS
            for u in us:
                with pytest.raises(FlowDivergence, match="not run"):
                    jump_flow_phi(QUAD_SIGMA, 0.3, u)
                with pytest.raises(FlowDivergence, match="not run"):
                    flow_with_sensitivity(QUAD_SIGMA, 0.3, u)

    def test_richardson_doubling_stops_at_the_cap(self, monkeypatch):
        # size 0.5 starts at 10 substeps; the first doubling would pass 16
        assert jump_flow_phi(QUAD_SIGMA, 0.0, 0.5) == pytest.approx(math.tan(0.5), rel=1e-10)
        monkeypatch.setattr(marcus_mod, "MAX_FLOW_SUBSTEPS", 16)
        with pytest.raises(FlowDivergence, match="failed to meet tol"):
            jump_flow_phi(QUAD_SIGMA, 0.0, 0.5)

    def test_flow_property(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0)
            u, v = rng.uniform(-0.4, 0.4, 2)
            lhs = jump_flow_phi(QUAD_SIGMA, jump_flow_phi(QUAD_SIGMA, x, u), v)
            rhs = jump_flow_phi(QUAD_SIGMA, x, u + v)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_sensitivity_branch_leaves_phi_bit_identical(self):
        for y, u in [(0.2, 0.03), (-0.5, 0.7), (0.4, -1.0)]:
            for n in (flow_substeps(u), 3 * flow_substeps(u)):
                phi, _ = _flow_once(QUAD_SIGMA, y, u, n)
                assert phi == flow_with_sensitivity(QUAD_SIGMA, y, u, n)[0]

    def test_sensitivity_matches_central_difference(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            x = rng.uniform(-0.8, 0.8)
            u = rng.uniform(-0.4, 0.4)
            _, acc = flow_with_sensitivity(QUAD_SIGMA, x, u, n=256)
            got = math.exp(acc)
            h = 1e-6 * (1.0 + abs(x))
            fd = (jump_flow_phi(QUAD_SIGMA, x + h, u, 1e-13)
                  - jump_flow_phi(QUAD_SIGMA, x - h, u, 1e-13)) / (2.0 * h)
            assert got == pytest.approx(fd, rel=1e-6)


class TestRemainder:
    def test_constant_sigma_zero(self):
        sigma = DiffusionField(lambda x: 2.0, lambda x: 0.0, min_abs=2.0)
        assert marcus_remainder_rho(sigma, 1.3, 0.25) == pytest.approx(0.0, abs=1e-12)

    def test_linear_sigma_series(self):
        got = marcus_remainder_rho(LINEAR_SIGMA, 1.0, 0.1)
        assert got == pytest.approx(math.exp(0.1) - 1.0 - 0.1, rel=1e-9)

    def test_quadratic_bound_stable_under_refinement(self):
        def fitted_constant(n_y, n_z):
            ys = np.linspace(-1.0, 1.0, n_y)
            zs = np.linspace(-0.5, 0.5, n_z)
            zs = zs[zs != 0.0]
            best = 0.0
            for y in ys:
                for z in zs:
                    best = max(best, abs(marcus_remainder_rho(QUAD_SIGMA, y, z, 1e-9))
                               / (z * z))
            return best

        k_coarse = fitted_constant(9, 17)
        k_fine = fitted_constant(17, 33)
        assert abs(k_fine - k_coarse) <= 0.10 * k_coarse
        # the bound fitted on the coarse grid holds on the finer one
        assert k_fine <= 1.1 * k_coarse


class TestMarcusSolve:
    def test_unit_sigma_reduces_to_random_ode(self):
        a = ScalarField(lambda x: math.sin(x), lambda x: math.cos(x))
        path = make_path([(0.3, 0.7), (0.8, -0.4)], drift=0.25)
        step = 1.0 / 256
        traj = marcus_solve(a, CONST_ONE, path, 0.4, step)
        sol = solve_random_ode(a, path, 0.4, step)
        assert traj.terminal == pytest.approx(sol.terminal_x, abs=1e-10)
        assert np.array_equal(traj.times, sol.times)
        assert np.max(np.abs(traj.x_values - sol.x_values)) <= 1e-10

    def test_pure_multiplicative_exponential(self):
        # dX = X o dZ from 1 solves to exp(Z)
        path = make_path([(0.25, 0.5), (0.6, -0.2)], drift=0.3)
        traj = marcus_solve(ZERO_FIELD, LINEAR_SIGMA, path, 1.0, 1.0 / 256)
        assert traj.terminal == pytest.approx(math.exp(path.terminal), rel=1e-6)

    def test_jump_log_matches_flow(self):
        path = make_path([(0.2, 0.4), (0.7, -0.3)])
        traj = marcus_solve(ZERO_FIELD, QUAD_SIGMA, path, 0.1, 1.0 / 128)
        assert len(traj.jump_log) == 2
        for t, pre, size, post in traj.jump_log:
            assert post == pytest.approx(jump_flow_phi(QUAD_SIGMA, pre, size), abs=1e-9)

    def test_interchange_property(self):
        # solve with one jump == continuous piece, flow, continuous piece
        a = ScalarField(lambda x: 0.3 * math.cos(x), lambda x: -0.3 * math.sin(x))
        sigma = QUAD_SIGMA
        step = 1.0 / 512
        path = make_path([(0.4, 0.3)], drift=0.1)
        traj = marcus_solve(a, sigma, path, 0.2, step)

        first = marcus_solve(a, sigma, make_path([], horizon=0.4, drift=0.1),
                             0.2, step).terminal
        jumped = jump_flow_phi(sigma, first, 0.3, 1e-12)
        second = marcus_solve(a, sigma, make_path([], horizon=0.6, drift=0.1),
                              jumped, step).terminal
        assert traj.terminal == pytest.approx(second, abs=1e-8)

    def test_divergence_carries_jump_context(self):
        path = make_path([(0.5, 2.0)])
        with pytest.raises(FlowDivergence, match="t=0.5"):
            marcus_solve(ZERO_FIELD, QUAD_SIGMA, path, 0.0, 1.0 / 64)


class TestChainRule:
    def test_log_transform_of_exponential(self):
        # f = log, sigma = x, a = 0, k = 1: f(X) = f(x0) + Z exactly
        f = ScalarField(lambda x: math.log(x), lambda x: 1.0 / x)
        path = make_path([(0.25, 0.5), (0.6, -0.2)], drift=0.3)
        traj = marcus_solve(ZERO_FIELD, LINEAR_SIGMA, path, 1.0, 1.0 / 256)
        res = chain_rule_residual(f, ZERO_FIELD, LINEAR_SIGMA, traj, 1.0, path)
        assert res < 1e-6

    def test_identity_transform_residual_scales_like_step4(self):
        f = ScalarField(lambda x: x, lambda x: 1.0)
        a = ScalarField(lambda x: math.sin(x), lambda x: math.cos(x))
        path = make_path([(0.3, 0.7), (0.8, -0.4)], drift=0.2)
        for step in (1.0 / 64, 1.0 / 128):
            traj = marcus_solve(a, CONST_ONE, path, 0.4, step)
            res = chain_rule_residual(f, a, CONST_ONE, traj, 1.0, path)
            assert res <= 10.0 * step ** 4 * path.horizon

    def test_arctan_transform(self):
        # sigma = 1 + x^2, f = arctan, k = 1, a = (1 + x^2) * bounded
        f = ScalarField(lambda x: math.atan(x), lambda x: 1.0 / (1.0 + x * x))
        a = ScalarField(lambda x: 0.3 * (1.0 + x * x) / (1.0 + 0.5 * x * x),
                        lambda x: 0.3 * (2.0 * x * (1.0 + 0.5 * x * x)
                                         - (1.0 + x * x) * x)
                        / (1.0 + 0.5 * x * x) ** 2)
        a.validate(-2.0, 2.0)
        path = make_path([(0.3, 0.3), (0.7, -0.2)], drift=0.1)
        traj = marcus_solve(a, QUAD_SIGMA, path, 0.0, 1.0 / 256)
        res = chain_rule_residual(f, a, QUAD_SIGMA, traj, 1.0, path)
        assert res < 1e-5

    def test_probe_violation_rejected(self):
        f = ScalarField(lambda x: x, lambda x: 1.0)
        path = make_path([(0.5, 0.3)])
        traj = marcus_solve(ZERO_FIELD, QUAD_SIGMA, path, 0.0, 1.0 / 64)
        with pytest.raises(ValueError):
            chain_rule_residual(f, ZERO_FIELD, QUAD_SIGMA, traj, 1.0, path)
