import dataclasses
import math

import numpy as np
import pytest

from levyreg.batch import _skeleton, pack_paths
from levyreg.diagnostics import deterministic_skeleton
from levyreg.fields import make_diffusion_field, make_scalar_field
from levyreg.flow_engine import (
    NonDifferentiablePoint,
    ScalarField,
    flow_derivative_exponential,
    flow_derivative_variational,
    grid_segments,
    jump_time_derivative,
    rk4_step,
    solve_random_ode,
)
from levyreg.marcus import DiffusionField, marcus_solve
from levyreg.path_sampler import (
    BrownianSkeleton,
    LevyPath,
    decompose_first_jump,
    shift_jump_time,
)
from levyreg.transforms import doss_sussman_solve, unit_diffusion_transform


def make_path(jumps, horizon=1.0, drift=0.0):
    return LevyPath(horizon, drift,
                    np.array([t for t, _ in jumps]),
                    np.array([s for _, s in jumps]))


def affine_field(lam, c=0.0):
    return ScalarField(value=lambda x: lam * x + c,
                       derivative=lambda x: lam)


def logistic_field(low, high, rate, center):
    def val(x):
        return low + (high - low) / (1.0 + math.exp(-rate * (x - center)))

    def dv(x):
        e = 1.0 / (1.0 + math.exp(-rate * (x - center)))
        return (high - low) * rate * e * (1.0 - e)

    return ScalarField(val, dv)


def affine_exact_terminal(lam, c, path, x0):
    """Piecewise integrating-factor solution of X' = lam X + c + d with jumps."""
    d = path.drift_rate
    x, t = float(x0), 0.0
    events = list(zip(path.jump_times.tolist(), path.jump_sizes.tolist()))
    for tt, ss in events + [(path.horizon, 0.0)]:
        dt = tt - t
        if lam == 0.0:
            x = x + (c + d) * dt
        else:
            x = (x + (c + d) / lam) * math.exp(lam * dt) - (c + d) / lam
        x += ss
        t = tt
    return x


class TestSolveRandomOde:
    def test_zero_field_is_translation(self):
        path = make_path([(0.3, 1.0), (0.7, -0.4)], drift=0.2)
        sol = solve_random_ode(ScalarField(lambda x: 0.0, lambda x: 0.0), path, 0.5)
        assert sol.terminal_y == pytest.approx(0.5, abs=1e-14)
        assert sol.terminal_x == pytest.approx(0.5 + path.terminal, abs=1e-14)

    def test_linear_no_jump_closed_form(self):
        path = make_path([], horizon=1.0)
        sol = solve_random_ode(affine_field(-1.0), path, 1.0)
        assert sol.terminal_x == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_linear_single_jump_closed_form(self):
        path = make_path([(0.5, 1.0)])
        sol = solve_random_ode(affine_field(-1.0), path, 0.0)
        exact = affine_exact_terminal(-1.0, 0.0, path, 0.0)
        assert exact == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert sol.terminal_x == pytest.approx(exact, abs=1e-8)

    def test_pathwise_decomposition_exact(self):
        path = make_path([(0.25, 0.7), (0.6, -0.2)], drift=0.4)
        sol = solve_random_ode(affine_field(0.5), path, 0.3)
        # X is assembled as Y + Z on the grid; recomputing Z pointwise must agree
        for i in (0, 10, len(sol.times) // 2, len(sol.times) - 1):
            t = float(sol.times[i])
            side = "left" if (i > 0 and sol.times[i - 1] == t) else "right"
            z = path.left_value(t) if side == "left" else path.value(t)
            assert sol.x_values[i] == pytest.approx(sol.y_values[i] + z, abs=1e-12)

    def test_equation_residual_against_closed_form(self):
        # solver error within 10 * step^4 * horizon on affine fields
        path = make_path([(0.21, 0.5), (0.55, -0.3), (0.8, 0.4)], drift=0.3)
        for lam, c in ((0.8, 0.2), (-1.2, 0.5)):
            exact = affine_exact_terminal(lam, c, path, 0.7)
            for step in (1.0 / 32, 1.0 / 64, 1.0 / 128):
                sol = solve_random_ode(affine_field(lam, c), path, 0.7, step)
                assert abs(sol.terminal_x - exact) <= 10.0 * step ** 4 * path.horizon

    def test_step_halving_order(self):
        path = make_path([(0.3, 1.0)], drift=0.1)
        exact = affine_exact_terminal(-2.0, 0.3, path, 1.0)
        errs = []
        for step in (1.0 / 8, 1.0 / 16, 1.0 / 32):
            sol = solve_random_ode(affine_field(-2.0, 0.3), path, 1.0, step)
            errs.append(abs(sol.terminal_x - exact))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 3.8

    def test_jump_records_store_left_limits(self):
        path = make_path([(0.5, 1.0)])
        sol = solve_random_ode(affine_field(-1.0), path, 0.0)
        (t, x_left, x_right, size), = sol.jump_records
        assert t == 0.5
        assert x_left == pytest.approx(0.0, abs=1e-10)
        assert x_right == pytest.approx(1.0, abs=1e-10)
        assert size == 1.0

    def test_probe_validation_catches_wrong_derivative(self):
        bad = ScalarField(value=lambda x: x * x, derivative=lambda x: x)
        with pytest.raises(ValueError):
            bad.validate(-1.0, 1.0)
        ScalarField(lambda x: x * x, lambda x: 2 * x).validate(-1.0, 1.0)


ONE = DiffusionField(lambda x: 1.0, lambda x: 0.0, min_abs=1.0)
SCALAR_SOLVERS = {
    "solve_random_ode":
        lambda a, path, step: solve_random_ode(a, path, 0.1, step).terminal_x,
    "flow_derivative_variational":
        lambda a, path, step: flow_derivative_variational(a, path, 0.1, step),
    "marcus_solve": lambda a, path, step: marcus_solve(a, ONE, path, 0.1, step).terminal,
    "doss_sussman_solve":
        lambda a, path, step: doss_sussman_solve(a, ONE, path, 0.1, step),
}


class TestStep:
    @pytest.mark.parametrize("solver", sorted(SCALAR_SOLVERS))
    @pytest.mark.parametrize("step", [0.0, -0.25])
    def test_nonpositive_step_rejected(self, solver, step):
        path = make_path([(0.5, 0.3)])
        with pytest.raises(ValueError, match="step must be > 0"):
            SCALAR_SOLVERS[solver](affine_field(-1.0), path, step)

    @pytest.mark.parametrize("solver", sorted(SCALAR_SOLVERS))
    def test_default_step_is_horizon_over_4096(self, solver):
        path = make_path([(0.5, 0.3)], horizon=2.0)
        run = SCALAR_SOLVERS[solver]
        assert run(affine_field(-1.0), path, None) == \
            run(affine_field(-1.0), path, 2.0 / 4096)


def _written_out_rk4(f, t, y, h):
    """rk4_step's formula as written: y + (h / 6) (k1 + 2 k2 + 2 k3 + k4)."""
    half = 0.5 * h
    t_mid, t_end = (None, None) if t is None else (t + half, t + h)
    k1 = f(t, y)
    k2 = f(t_mid, y + half * k1)
    k3 = f(t_mid, y + half * k2)
    k4 = f(t_end, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_LOGISTIC = make_scalar_field("logistic-slope", {"low": 0.0, "high": 1.0, "rate": 1.0,
                                                 "center": 0.3})
_STATES = [0.0, -0.0, 0.7, -2.5, 1e300, -1e300, 5e-324, math.inf, -math.inf, math.nan]


class TestRk4Sum:
    """rk4_step accumulates its weighted sum in one new array, with the bits
    of the formula as written, on every state type a solver hands it."""

    FIELDS = {
        "logistic": lambda t, y: _LOGISTIC.value(y),
        "timed": lambda t, y: _LOGISTIC.value(y if t is None else y + 0.4 * t) - 0.2 * y,
        "cubic": lambda t, y: y * y * y - y,
        # a Python float or np.float64 whatever y is
        "float": lambda t, y: 0.35,
        "float64": lambda t, y: np.float64(-1.25),
    }

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("t", [None, 0.25])
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_scalars(self, name, t, kind):
        f = self.FIELDS[name]
        with np.errstate(over="ignore", invalid="ignore"):
            for y in _STATES:
                for h in (0.1, 1.0 / 3.0):
                    got, want = (step(f, t, kind(y), kind(h))
                                 for step in (rk4_step, _written_out_rk4))
                    assert type(got) is type(want)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("t", [None, 0.25, "array"])
    @pytest.mark.parametrize("h", [0.1, "array"])
    def test_arrays(self, name, t, h):
        f = self.FIELDS[name]
        y = np.array(_STATES)
        steps = np.linspace(0.0, 0.5, y.size)
        h = steps if h == "array" else h
        t = 1.0 - steps if t == "array" else t
        kept = y.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = rk4_step(f, t, y, h), _written_out_rk4(f, t, y, h)
        assert got.tobytes() == want.tobytes()
        assert y.tobytes() == kept.tobytes() and not np.shares_memory(got, y)


class TestFlowDerivative:
    def test_zero_field(self):
        sol = solve_random_ode(ScalarField(lambda x: 0.0, lambda x: 0.0),
                               make_path([]), 0.0)
        assert flow_derivative_exponential(
            ScalarField(lambda x: 0.0, lambda x: 0.0), sol) == pytest.approx(1.0)

    def test_constant_slope(self):
        a = affine_field(0.5)
        sol = solve_random_ode(a, make_path([(0.4, 0.3)]), 0.2)
        assert flow_derivative_exponential(a, sol) == pytest.approx(
            math.exp(0.5), rel=1e-10)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            a = logistic_field(rng.uniform(-0.5, 0.0), rng.uniform(0.2, 1.0),
                               rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5))
            jumps = sorted(rng.uniform(0.05, 0.95, 2))
            path = make_path([(jumps[0], rng.uniform(0.2, 0.8)),
                              (jumps[1], rng.uniform(-0.8, -0.2))],
                             drift=rng.uniform(-0.3, 0.3))
            x0 = rng.uniform(-1.0, 1.0)
            sol = solve_random_ode(a, path, x0)
            got = flow_derivative_exponential(a, sol)
            h = 1e-5
            up = solve_random_ode(a, path, x0 + h).terminal_x
            dn = solve_random_ode(a, path, x0 - h).terminal_x
            fd = (up - dn) / (2.0 * h)
            assert got == pytest.approx(fd, rel=1e-5)

    def test_matches_variational_route(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            a = logistic_field(0.0, rng.uniform(0.3, 1.0),
                               rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5))
            path = make_path([(0.35, 0.6), (0.75, -0.4)], drift=0.1)
            x0 = rng.uniform(-1.0, 1.0)
            sol = solve_random_ode(a, path, x0)
            got = flow_derivative_exponential(a, sol)
            var = flow_derivative_variational(a, path, x0)
            assert got == pytest.approx(var, rel=1e-8)



def variational_2vector(a, path, x0, step=None):
    """`flow_derivative_variational` with (y, u) as a numpy 2-vector stepped
    by `rk4_step`: the reference for its two-float form."""
    a_val, a_dot = a.value, a.derivative
    drift = path.drift_rate
    state = np.array([float(x0), 1.0])
    for _, _, base, slope, _, substeps in grid_segments(path, step):
        def f(t, state):
            yv, uv = state
            x = yv + drift * t + base + slope * t
            return np.array([a_val(x), a_dot(x) * uv])

        for t, _, h in substeps:
            state = rk4_step(f, t, state, h)
    return float(state[1])


class TestVariationalTwoFloats:
    KINDS = [
        ("logistic-slope", {"low": -0.2, "high": 0.9, "rate": 1.1, "center": 0.3}),
        ("linear", {"slope": -0.7}),
        ("affine", {"slope": 0.4, "intercept": -0.3}),
        ("arctan-diffusion", {"amplitude": 0.2, "curvature": 0.8, "center": -0.1}),
    ]

    @staticmethod
    def path(brownian: bool) -> LevyPath:
        skeleton = None
        if brownian:
            rng = np.random.default_rng(23)
            skeleton = BrownianSkeleton(
                np.linspace(0.0, 1.0, 17),
                np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.25, 16))]))
        return LevyPath(1.0, 0.15, np.array([0.3, 0.62, 0.9]),
                        np.array([0.5, -0.8, 0.3]), skeleton)

    @pytest.mark.parametrize("brownian", [False, True])
    @pytest.mark.parametrize("name,params", KINDS)
    def test_matches_2vector_bit_for_bit(self, name, params, brownian):
        a = make_scalar_field(name, params)
        path = self.path(brownian)
        for x0, step in ((-0.7, 1.0 / 512), (0.0, 1.0 / 300), (0.45, None)):
            got = flow_derivative_variational(a, path, x0, step)
            want = variational_2vector(a, path, x0, step)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x0, step)


class TestJumpTimeDerivative:
    def test_linear_closed_form(self):
        a = affine_field(0.5)
        path = make_path([(0.5, 1.0), (0.8, 1.0)])
        decomp = decompose_first_jump(path, 0.5, 2.0)
        sol = solve_random_ode(a, path, 0.0)
        got = jump_time_derivative(a, sol, decomp.T)
        assert got == pytest.approx(-0.5 * math.exp(0.25), rel=1e-8)

    def test_constant_field_gives_zero(self):
        a = ScalarField(lambda x: 0.7, lambda x: 0.0)
        path = make_path([(0.3, 0.6), (0.6, 0.6)])
        decomp = decompose_first_jump(path, 0.5, 1.0)
        sol = solve_random_ode(a, path, 0.0)
        assert jump_time_derivative(a, sol, decomp.T) == 0.0

    def test_horizon_jump_is_non_differentiable(self):
        a = affine_field(0.5)
        path = make_path([(0.5, 1.0), (1.0, 1.0)])
        sol = solve_random_ode(a, path, 0.0)
        with pytest.raises(NonDifferentiablePoint):
            jump_time_derivative(a, sol, 1.0)

    def test_marked_time_past_horizon_gives_zero(self):
        a = affine_field(0.5)
        path = make_path([(0.5, 1.0)], horizon=1.0)
        sol = solve_random_ode(a, path, 0.0)
        assert jump_time_derivative(a, sol, 1.5) == 0.0

    def test_matches_resimulation_oracle_both_sides(self):
        rng = np.random.default_rng(23)
        step = 1.0 / 512
        checked = 0
        for _ in range(10):
            a = logistic_field(0.0, rng.uniform(0.4, 1.0),
                               rng.uniform(0.4, 1.2), rng.uniform(-0.3, 0.3))
            t1, t2 = sorted(rng.uniform(0.1, 0.9, 2))
            if t2 - t1 < 0.05 or 1.0 - t2 < 0.05 or t1 < 0.05:
                continue
            path = make_path([(t1, 0.5), (t2, 0.5)], drift=rng.uniform(-0.2, 0.2))
            decomp = decompose_first_jump(path, 0.3, 0.8)
            x0 = rng.uniform(-0.5, 0.5)
            sol = solve_random_ode(a, path, x0, step)
            got = jump_time_derivative(a, sol, decomp.T)

            def y1(p):
                return solve_random_ode(a, p, x0, step).terminal_y

            base = y1(path)
            for sign in (+1.0, -1.0):
                d_h = (y1(shift_jump_time(path, 0, sign * 1e-4)) - base) / (sign * 1e-4)
                d_h10 = (y1(shift_jump_time(path, 0, sign * 1e-5)) - base) / (sign * 1e-5)
                oracle = (10.0 * d_h10 - d_h) / 9.0
                assert got == pytest.approx(oracle, rel=1e-4)
            checked += 1
        assert checked >= 6

    def test_sign_under_monotone_drift(self):
        # strictly increasing field + positive marked jump => strictly negative
        rng = np.random.default_rng(41)
        for k in range(100):
            a = logistic_field(0.0, rng.uniform(0.3, 1.5),
                               rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            t1, t2 = sorted(rng.uniform(0.05, 0.95, 2))
            if t2 - t1 < 1e-3:
                continue
            size = rng.uniform(0.1, 1.0)
            path = make_path([(t1, size), (t2, size)], drift=rng.uniform(-0.3, 0.3))
            decomp = decompose_first_jump(path, 0.05, 1.5)
            sol = solve_random_ode(a, path, rng.uniform(-1.0, 1.0), 1.0 / 128)
            assert jump_time_derivative(a, sol, decomp.T) < 0.0


class TestChainRuleZeroSlopeIdentity:
    def test_plateau_field_jump_sum(self):
        # a' vanishes along the whole trajectory: the drift path of a(X)
        # reduces to the sum of its jumps
        def val(x):
            if x <= 0.0:
                return 0.0
            if x >= 1.0:
                return 1.0
            return x * x * (3.0 - 2.0 * x)

        def dv(x):
            if x <= 0.0 or x >= 1.0:
                return 0.0
            return 6.0 * x * (1.0 - x)

        a = ScalarField(val, dv)
        a.validate(-3.0, 4.0)
        path = make_path([(0.4, 5.0)])
        sol = solve_random_ode(a, path, -2.0)
        assert all(abs(dv(x)) == 0.0 for x in sol.x_values)
        lhs = val(sol.terminal_x) - val(sol.x0)
        rhs = sum(val(xr) - val(xl) for _, xl, xr, _ in sol.jump_records)
        assert abs(lhs - rhs) <= 1e-10


def _recording(field, seen):
    """`field` with every callable adding the types of its arguments to `seen`."""
    def record(fn):
        def call(*args):
            seen.update(type(v) for v in args)
            return fn(*args)
        return call

    if isinstance(field, DiffusionField):
        return DiffusionField(record(field.value), record(field.derivative), field.min_abs,
                              None if field.flow is None else record(field.flow))
    return ScalarField(record(field.value), record(field.derivative))


class TestPythonFloatStates:
    """The scalar solvers step Python floats: no np.float64 reaches a field,
    and the catalogue hands Python floats back. The batch skeleton steps
    np.float64 scalars, which overflow quietly under its errstate."""

    A = {"low": -0.2, "high": 0.5, "rate": 1.1, "center": 0.3}
    SIGMA = {"low": 0.7, "high": 1.4, "rate": 0.8, "center": -0.2}
    JUMPS = [(0.3, 0.25), (0.55, -0.4), (0.8, 0.15)]

    def paths(self):
        grid = np.linspace(0.0, 1.0, 9)
        brownian = BrownianSkeleton(grid, 0.3 * np.sin(7.0 * grid))
        plain = make_path(self.JUMPS, drift=0.2)
        return plain, LevyPath(1.0, 0.2, plain.jump_times, plain.jump_sizes, brownian)

    @pytest.mark.parametrize("brownian", [False, True])
    def test_solvers_hand_fields_python_floats(self, brownian):
        path = self.paths()[brownian]
        seen = set()
        a = _recording(make_scalar_field("logistic-slope", self.A), seen)
        sigmas = [_recording(make_diffusion_field(name, params), seen)
                  for name, params in (("logistic-slope", self.SIGMA),
                                       ("arctan-diffusion", {"curvature": 0.5}))]
        step = 1.0 / 64
        solve_random_ode(a, path, 0.1, step)
        flow_derivative_variational(a, path, 0.1, step)
        deterministic_skeleton(a, 0.2, 0.1, 1.0, 256)
        for sigma in sigmas:
            marcus_solve(a, sigma, path, 0.1, step)
            for exact in (sigma, dataclasses.replace(sigma, flow=None)):
                diffeo = unit_diffusion_transform(exact, 0.0, -3.0, 3.0, cells=32)
                diffeo.inverse(diffeo.forward(0.7))
        assert float in seen
        assert np.float64 not in seen

    def test_batch_skeleton_steps_float64(self):
        a = make_scalar_field("logistic-slope", self.A)
        seen = set()

        def rhs(u, dz, jr, br):
            seen.add(type(u))
            return a.value(u + jr)

        _skeleton(pack_paths([self.paths()[0]], 16), 0.1, rhs, 16)
        assert seen == {np.float64}
