import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

import levyreg.quadrature as quadrature_mod
import levyreg.transforms as transforms_mod
from levyreg.fields import make_diffusion_field, make_scalar_field
from levyreg.flow_engine import ScalarField, SolverBlowUp, solve_random_ode
from levyreg.marcus import DiffusionField, FlowDivergence, jump_flow_phi, marcus_solve
from levyreg.path_sampler import LevyPath
from levyreg.quadrature import adaptive_simpson
from levyreg.transforms import (
    AssumptionHViolation,
    doss_sussman_drift,
    doss_sussman_solve,
    proportional_solution,
    reduced_drift,
    unit_diffusion_transform,
)


def make_path(jumps, horizon=1.0, drift=0.0):
    return LevyPath(horizon, drift,
                    np.array([t for t, _ in jumps]),
                    np.array([s for _, s in jumps]))


QUAD_SIGMA = DiffusionField(lambda x: 1.0 + x * x, lambda x: 2.0 * x, min_abs=1.0)
CONST_ONE = DiffusionField(lambda x: 1.0, lambda x: 0.0, min_abs=1.0)
ZERO_FIELD = ScalarField(lambda x: 0.0, lambda x: 0.0)


class TestUnitDiffusionTransform:
    def test_constant_sigma_scales(self):
        sigma = DiffusionField(lambda x: 2.0, lambda x: 0.0, min_abs=2.0)
        diffeo = unit_diffusion_transform(sigma, 0.0, -2.0, 2.0)
        assert diffeo.forward(1.0) == pytest.approx(0.5, abs=1e-12)
        assert diffeo.inverse(0.5) == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_sigma_is_arctan(self):
        diffeo = unit_diffusion_transform(QUAD_SIGMA, 0.0, -3.0, 3.0)
        assert diffeo.forward(1.0) == pytest.approx(math.atan(1.0), abs=1e-10)
        assert diffeo.forward(-2.0) == pytest.approx(math.atan(-2.0), abs=1e-10)
        diffeo.validate()

    def test_forward_derivative_identity(self):
        rng = np.random.default_rng(2)
        sigma = DiffusionField(lambda x: 1.5 + math.sin(x) ** 2,
                               lambda x: 2.0 * math.sin(x) * math.cos(x),
                               min_abs=1.5)
        diffeo = unit_diffusion_transform(sigma, 0.5, -2.0, 2.0)
        for x in rng.uniform(-2.0, 2.0, 12):
            h = 1e-6
            fd = (diffeo.forward(float(x) + h) - diffeo.forward(float(x) - h)) / (2 * h)
            assert fd * sigma.value(float(x)) == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_sigma_rejected(self):
        sigma = DiffusionField(lambda x: x, lambda x: 1.0)
        with pytest.raises(AssumptionHViolation):
            unit_diffusion_transform(sigma, 0.0, -1.0, 1.0)

    def test_negative_sigma_supported(self):
        sigma = DiffusionField(lambda x: -2.0, lambda x: 0.0, min_abs=2.0)
        diffeo = unit_diffusion_transform(sigma, 0.0, -1.0, 1.0)
        assert diffeo.forward(1.0) == pytest.approx(-0.5, abs=1e-12)
        assert diffeo.inverse(-0.5) == pytest.approx(1.0, abs=1e-10)
        diffeo.validate()

    def test_base_point_only_shifts(self):
        d0 = unit_diffusion_transform(QUAD_SIGMA, 0.0, -3.0, 3.0)
        d1 = unit_diffusion_transform(QUAD_SIGMA, 1.0, -3.0, 3.0)
        c = d0.forward(1.0)
        for x in (-1.0, 0.3, 2.0):
            assert d1.forward(x) == pytest.approx(d0.forward(x) - c, abs=1e-10)


def searchsorted_transform(sigma, base_point, range_lo, range_hi, cells):
    """(forward, inverse) of `unit_diffusion_transform` with its cells found
    by np.searchsorted on numpy tables: the reference for the bisect lookup."""
    nodes = np.linspace(range_lo, range_hi, cells + 1)
    inv = lambda t: 1.0 / sigma.value(t)
    cell_ints = np.array([
        adaptive_simpson(inv, float(nodes[k]), float(nodes[k + 1]), tol=1e-12)
        for k in range(cells)])
    cumulative = np.concatenate([[0.0], np.cumsum(cell_ints)])

    def forward_raw(x):
        if x < range_lo:
            return cumulative[0] + adaptive_simpson(inv, range_lo, x, tol=1e-12)
        if x > range_hi:
            return cumulative[-1] + adaptive_simpson(inv, range_hi, x, tol=1e-12)
        k = min(int(np.searchsorted(nodes, x, side="right")) - 1, cells - 1)
        k = max(k, 0)
        return float(cumulative[k]) + adaptive_simpson(inv, float(nodes[k]), x,
                                                       tol=1e-12)

    base_val = forward_raw(base_point)
    increasing = sigma.value(range_lo) > 0.0

    def inverse(y):
        target = y + base_val
        table = cumulative if increasing else -cumulative
        t = target if increasing else -target
        if t <= table[0]:
            x = range_lo
        elif t >= table[-1]:
            x = range_hi
        else:
            x = float(nodes[int(np.searchsorted(table, t)) - 1])
        for _ in range(100):
            r = forward_raw(x) - target
            if abs(r) <= 1e-13 * (1.0 + abs(target)):
                break
            x = x - r * sigma.value(x)
        return x

    return (lambda x: forward_raw(x) - base_val), inverse, nodes, cumulative - base_val


class _NanReached(Exception):
    pass


def without_flow(name, params):
    """The catalogue entry without its exact flow: the transform takes the
    quadrature table."""
    return dataclasses.replace(make_diffusion_field(name, params), flow=None)


class TestCellLookup:
    # an increasing f (sigma > 0) and a decreasing one, on the quadrature table
    SIGMAS = {
        "increasing": without_flow("logistic-slope", {"low": 0.5, "high": 1.5,
                                                      "rate": 1.3, "center": 0.2}),
        "decreasing": without_flow("constant", {"level": -1.0}),
    }
    LO, HI, CELLS, BASE = -4.0, 4.0, 64, 0.3

    def both(self, kind):
        args = (self.SIGMAS[kind], self.BASE, self.LO, self.HI, self.CELLS)
        return unit_diffusion_transform(*args), searchsorted_transform(*args)

    @pytest.mark.parametrize("kind", sorted(SIGMAS))
    def test_matches_searchsorted_bit_for_bit(self, kind):
        diffeo, (forward, inverse, nodes, ys) = self.both(kind)
        mids = 0.5 * (nodes[1:] + nodes[:-1])
        xs = [*nodes, *mids, self.LO - 1.5, self.HI + 2.5, -1e3, 1e3,
              np.nextafter(self.LO, -np.inf), np.nextafter(self.HI, np.inf)]
        y_mids = 0.5 * (ys[1:] + ys[:-1])
        probes_y = [*ys, *y_mids, *(forward(float(x)) for x in xs), ys[0] - 1.0,
                    ys[-1] + 1.0, -ys[-1]]
        bits = lambda v: np.float64(v).tobytes()
        for x in xs:
            assert bits(diffeo.forward(float(x))) == bits(forward(float(x))), x
        for y in probes_y:
            assert bits(diffeo.inverse(float(y))) == bits(inverse(float(y))), y

    @pytest.mark.parametrize("kind", sorted(SIGMAS))
    def test_nan_resolves_to_last_node(self, kind, monkeypatch):
        # adaptive Simpson never converges on a nan end point, so the spy
        # records the cells integrated from and stops at the first nan
        diffeo, (forward, inverse, nodes, _) = self.both(kind)
        calls = []

        def spy(f, a, b, tol, _real=adaptive_simpson):
            calls.append((a, "nan" if math.isnan(b) else b))
            if math.isnan(b):
                raise _NanReached
            return _real(f, a, b, tol)

        monkeypatch.setattr(transforms_mod, "adaptive_simpson", spy)
        monkeypatch.setitem(globals(), "adaptive_simpson", spy)

        def cells_visited(fn):
            calls.clear()
            with pytest.raises(_NanReached):
                fn(math.nan)
            return list(calls)

        last = float(nodes[-2])
        assert cells_visited(diffeo.forward) == cells_visited(forward) == [(last, "nan")]
        # Newton starts at the last node; its first step turns x into nan
        assert cells_visited(diffeo.inverse) == cells_visited(inverse) == [
            (last, self.HI), (last, "nan")]


class TestNonFiniteInput:
    # adaptive Simpson's error test can never pass on a nan or infinite end
    # point; without the check it recursed to depth 40 on both halves
    NON_FINITE = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_adaptive_simpson_rejects_end_point(self, bad):
        for a, b in [(0.0, bad), (bad, 1.0), (bad, bad)]:
            with pytest.raises(ValueError, match="finite end points"):
                adaptive_simpson(math.exp, a, b)

    @pytest.mark.parametrize("kind", sorted(TestCellLookup.SIGMAS))
    @pytest.mark.parametrize("side", ["forward", "inverse"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_transform_raises_flow_divergence(self, kind, side, bad):
        diffeo = unit_diffusion_transform(TestCellLookup.SIGMAS[kind], 0.3, -4.0, 4.0, 64)
        start = time.perf_counter()
        with pytest.raises(FlowDivergence):
            getattr(diffeo, side)(bad)
        assert time.perf_counter() - start < 1.0

    def test_finite_points_outside_the_range_still_integrate(self):
        diffeo = unit_diffusion_transform(CONST_ONE, 0.0, -1.0, 1.0, 8)
        assert diffeo.forward(3.0) == pytest.approx(3.0, abs=1e-12)
        assert diffeo.inverse(-2.5) == pytest.approx(-2.5, abs=1e-10)


# every catalogue sigma with an exact flow, one-signed on [-4, 4]: constant of
# either sign, affine, arctan-diffusion, and logistic-slope with both ends
# positive, both negative, or one end zero
EXACT_FLOWS = [
    ("constant", {"level": 0.7}),
    ("constant", {"level": -1.3}),
    ("affine", {"slope": 0.4, "intercept": 2.5}),
    ("affine", {"slope": -0.3, "intercept": -2.0}),
    ("arctan-diffusion", {"amplitude": 1.0, "curvature": 0.5, "center": 0.0}),
    ("arctan-diffusion", {"amplitude": -0.8, "curvature": 0.7, "center": 0.6}),
    ("logistic-slope", {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0}),
    ("logistic-slope", {"low": 1.6, "high": 0.6, "rate": 1.2, "center": -0.4}),
    ("logistic-slope", {"low": -0.8, "high": -1.6, "rate": 0.9, "center": 0.3}),
    ("logistic-slope", {"low": 0.0, "high": 1.6, "rate": 0.9, "center": 0.0}),
    ("logistic-slope", {"low": 1.2, "high": 0.0, "rate": 0.7, "center": -0.3}),
]
# S6's part (c) sigma kinds: a logistic-slope and an arctan-diffusion
S6_SIGMAS = [
    ("logistic-slope", {"low": 0.7, "high": 1.3, "rate": 0.8, "center": 0.2}),
    ("arctan-diffusion", {"amplitude": 1.1, "curvature": 0.5, "center": 0.0}),
]


class TestExactFlowTransform:
    LO, HI, BASE = -4.0, 4.0, 0.3

    def both(self, name, params):
        args = (self.BASE, self.LO, self.HI, 64)
        return (unit_diffusion_transform(make_diffusion_field(name, params), *args),
                unit_diffusion_transform(without_flow(name, params), *args))

    @pytest.mark.parametrize("name,params", EXACT_FLOWS)
    def test_matches_the_quadrature_oracle(self, name, params):
        exact, oracle = self.both(name, params)
        for x in np.linspace(self.LO, self.HI, 41).tolist():
            y = oracle.forward(x)
            assert abs(exact.forward(x) - y) <= 1e-10 * (1.0 + abs(x)), x
            assert abs(exact.inverse(y) - oracle.inverse(y)) <= 1e-10 * (1.0 + abs(x)), x
        exact.validate()

    @pytest.mark.parametrize("name,params", EXACT_FLOWS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises_on_both_paths(self, name, params, bad):
        for diffeo in self.both(name, params):
            for side in (diffeo.forward, diffeo.inverse):
                with pytest.raises(FlowDivergence):
                    side(bad)

    def test_forward_past_a_zero_of_sigma_raises_on_both_paths(self):
        # 0.4 x + 2.5 vanishes at -6.25, outside the range: f has no value there
        for diffeo in self.both("affine", {"slope": 0.4, "intercept": 2.5}):
            assert diffeo.forward(-6.0) == pytest.approx(math.log(0.1 / 2.62) / 0.4, rel=1e-12)
            for x in (-6.25, -7.0):
                with pytest.raises(FlowDivergence):
                    diffeo.forward(x)

    @pytest.mark.parametrize("name,params", EXACT_FLOWS)
    def test_far_targets_converge_or_raise_without_a_warning(self, name, params):
        # sigma = 1.6 expit(0.9 x) is below 1e-26 past x = -67, where f is
        # near -1e26 and a Newton step from there to -1e300 overflows
        diffeo = unit_diffusion_transform(make_diffusion_field(name, params), self.BASE,
                                          self.LO, self.HI)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (-1e300, -1e30, -100.0, 100.0, 1e30, 1e300):
                try:
                    assert math.isfinite(diffeo.forward(x))
                except FlowDivergence:
                    pass

    def test_a_flow_past_its_pole_raises(self):
        # f(x) = arctan(x / 2) / 0.5 stays below pi, the time the flow from 0
        # takes to reach infinity
        diffeo = unit_diffusion_transform(make_diffusion_field(*EXACT_FLOWS[4]),
                                          0.0, -4.0, 4.0)
        assert diffeo.forward(1e6) == pytest.approx(math.atan(5e5) / 0.5, rel=1e-13)
        with pytest.raises(FlowDivergence):
            diffeo.inverse(3.2)

    @pytest.mark.parametrize("name,params", EXACT_FLOWS + S6_SIGMAS)
    def test_never_builds_the_quadrature_table(self, monkeypatch, name, params):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("adaptive_simpson called")

        monkeypatch.setattr(transforms_mod, "adaptive_simpson", no_quadrature)
        diffeo = unit_diffusion_transform(make_diffusion_field(name, params), self.BASE,
                                          self.LO, self.HI)
        for x in (-3.5, -0.4, 0.0, 0.9, 6.0):
            assert diffeo.inverse(diffeo.forward(x)) == pytest.approx(x, abs=1e-12)


def uncapped_simpson(f, a, b, tol=1e-10, max_depth=40):
    """adaptive_simpson as it was before the evaluation budget."""
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if depth <= 0 or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return (rec(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                + rec(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))

    return sign * rec(a, b, fa, fm, fb, whole, tol, max_depth)


class TestEvaluationBudget:
    # z^-4 on the shell [1e-3, 2^-9] peaks at 1e12, far beyond what tol 1e-11
    # can resolve: uncapped, the recursion ran toward 2^40 evaluations
    def test_steep_shell_raises_within_a_second(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 100000 evaluations"):
            adaptive_simpson(lambda z: z ** -4.0, 1e-3, 2.0 ** -9, tol=1e-11)
        assert time.perf_counter() - start < 1.0

    def test_calls_never_pass_the_budget(self, monkeypatch):
        calls = []
        monkeypatch.setattr(quadrature_mod, "MAX_EVALUATIONS", 9)

        def f(z):
            calls.append(z)
            return z ** -4.0

        assert adaptive_simpson(f, 0.5, 1.0, tol=1.0) == uncapped_simpson(
            lambda z: z ** -4.0, 0.5, 1.0, tol=1.0)
        calls.clear()
        with pytest.raises(ValueError, match="more than 9 evaluations"):
            adaptive_simpson(f, 1e-3, 2.0 ** -9, tol=1e-11)
        assert len(calls) == 9

    @pytest.mark.parametrize("f,a,b,tol", [
        (math.exp, -1.0, 2.0, 1e-10),
        (lambda z: 1.0 / (1.0 + z * z), 3.0, -2.0, 1e-12),
        (lambda z: abs(z) ** -1.5, 1e-3, 2.0 ** -9, 1e-11),
        (lambda z: math.sin(40.0 * z), 0.0, 1.0, 1e-12)])
    def test_budget_keeps_bits(self, f, a, b, tol):
        assert adaptive_simpson(f, a, b, tol) == uncapped_simpson(f, a, b, tol)

    def test_transform_turns_the_budget_into_flow_divergence(self, monkeypatch):
        diffeo = unit_diffusion_transform(QUAD_SIGMA, 0.0, -3.0, 3.0, 8)
        x = diffeo.forward(0.3)
        monkeypatch.setattr(quadrature_mod, "MAX_EVALUATIONS", 3)
        with pytest.raises(FlowDivergence, match="evaluations"):
            diffeo.forward(0.3)
        with pytest.raises(FlowDivergence, match="evaluations"):
            diffeo.inverse(x)


class TestReducedDrift:
    def test_unit_sigma_is_identity(self):
        a = ScalarField(lambda x: math.sin(x), lambda x: math.cos(x))
        diffeo = unit_diffusion_transform(CONST_ONE, 0.0, -3.0, 3.0)
        red = reduced_drift(a, CONST_ONE, diffeo)
        for x in (-1.2, 0.0, 0.7):
            assert red.value(x) == pytest.approx(a.value(x), abs=1e-9)
            assert red.derivative(x) == pytest.approx(a.derivative(x), abs=1e-9)

    def test_proportional_gives_constant(self):
        k = 0.7
        a = ScalarField(lambda x: k * (1.0 + x * x), lambda x: k * 2.0 * x)
        diffeo = unit_diffusion_transform(QUAD_SIGMA, 0.0, -3.0, 3.0)
        red = reduced_drift(a, QUAD_SIGMA, diffeo)
        for y in (-1.0, 0.0, 0.9):
            assert red.value(y) == pytest.approx(k, abs=1e-9)
            assert red.derivative(y) == pytest.approx(0.0, abs=1e-9)

    def test_conjugacy_between_solvers(self):
        # f maps Marcus solutions to unit-diffusion solutions pathwise
        rng = np.random.default_rng(6)
        step = 1.0 / 256
        for _ in range(10):
            c1 = rng.uniform(0.1, 0.4)
            a = ScalarField(
                lambda x, c1=c1: c1 * (1.0 + x * x) / (1.0 + 0.5 * x * x),
                lambda x, c1=c1: c1 * (2.0 * x * (1.0 + 0.5 * x * x)
                                       - (1.0 + x * x) * x) / (1.0 + 0.5 * x * x) ** 2)
            jumps = sorted(rng.uniform(0.1, 0.9, 2))
            path = make_path([(jumps[0], rng.uniform(-0.3, 0.3) or 0.1),
                              (jumps[1], rng.uniform(-0.3, 0.3) or -0.1)],
                             drift=rng.uniform(-0.2, 0.2))
            x0 = rng.uniform(-0.5, 0.5)
            diffeo = unit_diffusion_transform(QUAD_SIGMA, 0.0, -6.0, 6.0)
            red = reduced_drift(a, QUAD_SIGMA, diffeo)
            marcus_term = marcus_solve(a, QUAD_SIGMA, path, x0, step).terminal
            unit_term = solve_random_ode(red, path, diffeo.forward(x0), step).terminal_x
            assert diffeo.forward(marcus_term) == pytest.approx(unit_term, abs=1e-5)

    def test_a_zero_of_sigma_gives_a_non_finite_drift(self):
        # f^-1(y) = e^y underflows to 0.0, the zero of sigma(x) = x, past the
        # checked range: the drift is a / 0, which the solver flags
        sigma = make_diffusion_field("linear", {"slope": 1.0})
        diffeo = unit_diffusion_transform(sigma, 1.0, 0.5, 3.0)
        assert diffeo.inverse(-800.0) == 0.0
        red = reduced_drift(make_scalar_field("constant", {"level": 0.3}), sigma, diffeo)
        assert red.value(-800.0) == math.inf
        assert red.derivative(-800.0) == -math.inf
        with pytest.raises((SolverBlowUp, FlowDivergence)):
            solve_random_ode(red, make_path([(0.5, 0.1)]), -800.0, 1.0 / 16)

    def test_monotonicity_transport(self):
        # b = a / sigma strictly increasing near x transfers to the reduced drift
        a = ScalarField(lambda x: math.atan(x) * (1.0 + x * x),
                        lambda x: 1.0 + 2.0 * x * math.atan(x))
        diffeo = unit_diffusion_transform(QUAD_SIGMA, 0.0, -2.0, 2.0)
        red = reduced_drift(a, QUAD_SIGMA, diffeo)
        x = 0.4
        y = diffeo.forward(x)
        probe = np.linspace(y - 0.05, y + 0.05, 11)
        vals = [red.value(float(p)) for p in probe]
        assert all(b > a_ for a_, b in zip(vals, vals[1:]))
        assert all(red.derivative(float(p)) > 0.0 for p in probe)


class TestProportionalSolution:
    def test_unit_sigma_additive(self):
        path = make_path([(0.4, 0.5)], drift=0.3)
        got = proportional_solution(CONST_ONE, 0.7, 0.2, path)
        assert got == pytest.approx(0.2 + path.terminal + 0.7, abs=1e-10)

    def test_multiplicative_exponential(self):
        sigma = DiffusionField(lambda x: x, lambda x: 1.0)
        path = make_path([(0.3, 0.4), (0.7, -0.2)], drift=0.1)
        got = proportional_solution(sigma, 0.0, 1.0, path)
        assert got == pytest.approx(math.exp(path.terminal), rel=1e-9)

    def test_matches_marcus_solver(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            k = rng.uniform(-0.5, 0.5)
            a = ScalarField(lambda x, k=k: k * (1.0 + x * x),
                            lambda x, k=k: k * 2.0 * x)
            jumps = sorted(rng.uniform(0.1, 0.9, 2))
            path = make_path([(jumps[0], rng.uniform(0.05, 0.25)),
                              (jumps[1], -rng.uniform(0.05, 0.25))],
                             drift=rng.uniform(-0.2, 0.2))
            x0 = rng.uniform(-0.3, 0.3)
            closed = proportional_solution(QUAD_SIGMA, k, x0, path)
            traj = marcus_solve(a, QUAD_SIGMA, path, x0, 1.0 / 512)
            assert closed == pytest.approx(traj.terminal, abs=1e-6)


class TestDossSussman:
    def test_zero_drift_reduces_to_flow(self):
        path = make_path([(0.4, 0.3)], drift=0.2)
        got = doss_sussman_solve(ZERO_FIELD, QUAD_SIGMA, path, 0.1, 1.0 / 64)
        assert got == pytest.approx(
            jump_flow_phi(QUAD_SIGMA, 0.1, path.terminal), abs=1e-9)

    def test_unit_sigma_reduces_to_random_ode(self):
        a = ScalarField(lambda x: math.sin(x), lambda x: math.cos(x))
        path = make_path([(0.3, 0.6), (0.8, -0.4)], drift=0.25)
        got = doss_sussman_solve(a, CONST_ONE, path, 0.4, 1.0 / 128)
        sol = solve_random_ode(a, path, 0.4, 1.0 / 128)
        assert got == pytest.approx(sol.terminal_x, abs=1e-6)

    def test_underflowing_sensitivity_diverges(self):
        # sigma(x) = -x over a jump of 800: dphi/dy = e^-800 underflows to 0
        sigma = make_diffusion_field("linear", {"slope": -1.0})
        a = make_scalar_field("constant", {"level": 0.3})
        assert doss_sussman_drift(a, sigma, 1.0, 800.0) == math.inf
        with pytest.raises(FlowDivergence):
            doss_sussman_solve(a, sigma, make_path([(0.5, 800.0)]), 1.0, 1.0 / 16)

    def test_matches_marcus_pathwise(self):
        rng = np.random.default_rng(44)
        sigma = DiffusionField(lambda x: 1.0 + 0.25 * math.sin(x),
                               lambda x: 0.25 * math.cos(x), min_abs=0.7)
        for _ in range(5):
            a = ScalarField(lambda x: 0.4 * math.cos(x),
                            lambda x: -0.4 * math.sin(x))
            jumps = sorted(rng.uniform(0.1, 0.9, 3))
            path = make_path(
                [(t, rng.uniform(-0.5, 0.5) or 0.2) for t in jumps],
                drift=rng.uniform(-0.3, 0.3))
            x0 = rng.uniform(-1.0, 1.0)
            doss = doss_sussman_solve(a, sigma, path, x0, 1.0 / 128)
            marc = marcus_solve(a, sigma, path, x0, 1.0 / 256).terminal
            assert doss == pytest.approx(marc, abs=2e-5)
