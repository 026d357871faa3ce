import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import levyreg.fields as fields_mod
from levyreg.batch import flow_map_array
from levyreg.fields import (
    _EXP_CLIP,
    _expit_float,
    _expit_owned,
    canonical_params,
    catalogue_names,
    make_diffusion_field,
    make_scalar_field,
)
from levyreg.flow_engine import operand
from levyreg.marcus import FlowDivergence, flow_substeps, flow_with_sensitivity, jump_flow_phi


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


class TestCatalogue:
    def test_names(self):
        assert catalogue_names() == ["affine", "arctan-diffusion", "constant",
                                     "linear", "logistic-slope"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_scalar_field("cubic")

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="bad parameters"):
            make_scalar_field("linear", {"slop": 1.0})

    def test_defaults_filled(self):
        params = canonical_params("logistic-slope", {"high": 2.0})
        assert params["high"] == 2.0
        assert set(params) == {"low", "high", "rate", "center"}

    @pytest.mark.parametrize("name,params", [
        ("constant", {"level": 0.4}),
        ("linear", {"slope": -0.7}),
        ("affine", {"slope": 0.3, "intercept": 1.1}),
        ("logistic-slope", {"low": 0.2, "high": 1.4, "rate": 0.8, "center": -0.3}),
        ("arctan-diffusion", {"amplitude": 0.9, "curvature": 0.6, "center": 0.1}),
    ])
    def test_derivatives_consistent(self, name, params):
        f = make_scalar_field(name, params)
        f.validate(-3.0, 3.0)

    @pytest.mark.parametrize("name,params", [
        ("constant", {"level": 0.4}),
        ("linear", {"slope": -0.7}),
        ("logistic-slope", {"low": 0.2, "high": 1.4, "rate": 0.8, "center": -0.3}),
        ("arctan-diffusion", {"amplitude": 0.9, "curvature": 0.6, "center": 0.1}),
    ])
    def test_array_evaluation_matches_scalar(self, name, params):
        f = make_scalar_field(name, params)
        xs = np.linspace(-2.0, 2.0, 9)
        vec_v = np.asarray(f.value(xs), dtype=float)
        vec_d = np.asarray(f.derivative(xs), dtype=float)
        for i, x in enumerate(xs):
            assert _bits(vec_v[i]) == _bits(f.value(float(x)))
            assert _bits(vec_d[i]) == _bits(f.derivative(float(x)))

    def test_logistic_strictly_increasing(self):
        # strict in exact arithmetic; checked where float64 can resolve it
        f = make_scalar_field("logistic-slope",
                              {"low": 0.0, "high": 1.0, "rate": 2.0, "center": 0.0})
        xs = np.linspace(-8.0, 8.0, 101)
        vals = np.asarray(f.value(xs))
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.asarray(f.derivative(xs)) > 0.0)

    def test_logistic_stable_far_out(self):
        f = make_scalar_field("logistic-slope",
                              {"low": 0.0, "high": 1.0, "rate": 5.0, "center": 0.0})
        assert float(f.value(1e6)) == pytest.approx(1.0)
        assert float(f.value(-1e6)) == pytest.approx(0.0)
        assert np.isfinite(f.derivative(np.array([-1e6, 0.0, 1e6]))).all()

    def test_diffusion_min_abs_witnesses(self):
        sig = make_diffusion_field("logistic-slope",
                                   {"low": 0.5, "high": 1.5, "rate": 1.0,
                                    "center": 0.0})
        assert sig.min_abs == 0.5
        sig.validate(-5.0, 5.0)
        quad = make_diffusion_field("arctan-diffusion",
                                    {"amplitude": 0.8, "curvature": 1.0,
                                     "center": 0.0})
        assert quad.min_abs == 0.8
        lin = make_diffusion_field("linear", {"slope": 1.0})
        assert lin.min_abs is None


_CATALOGUE_PARAMS = [
    ("constant", {"level": 0.4}),
    ("linear", {"slope": -0.7}),
    ("affine", {"slope": 0.3, "intercept": 1.1}),
    ("logistic-slope", {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0}),
    ("arctan-diffusion", {"amplitude": 0.9, "curvature": 0.6, "center": 0.1}),
]
# rate * (x - center) passes the expit clamp of 60 at |x| > 66.7 for the
# logistic entry above
_EDGE_POINTS = [-1e300, -100.0, -66.8, -66.6, -1.0, -0.0, 0.0, 0.3, 1.0, 66.8,
                100.0, 1e300, np.inf, -np.inf, np.nan]

# the expit clamp's edges and their float neighbours, for a unit-rate logistic
_CLAMP_NEIGHBOURS = [float(np.nextafter(e, toward))
                     for e in (-_EXP_CLIP, _EXP_CLIP) for toward in (-np.inf, np.inf)]
_FIXED_EDGES = [-_EXP_CLIP, _EXP_CLIP, *_CLAMP_NEIGHBOURS, -1e300, 1e300,
                -np.inf, np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324]


class TestExpitClamp:
    def test_expit_clamp_matches_clip(self):
        ts = np.array([-1e300, -61.0, -60.0, -59.9, -1.0, -0.0, 0.0, 2.5, 59.9,
                       60.0, 61.0, 1e300, np.inf, -np.inf, np.nan,
                       *_CLAMP_NEIGHBOURS])

        def clipped(t):
            return 1.0 / (1.0 + np.exp(-np.clip(t, -_EXP_CLIP, _EXP_CLIP)))

        assert _bits(_expit_owned(ts.copy(), None)) == _bits(clipped(ts))
        # Python floats, then np.float64 scalars
        for t in [*ts.tolist(), *ts]:
            assert _bits(_expit_float(t)) == _bits(clipped(t))


_finite = st.floats(-10.0, 10.0)
_PARAM_STRATEGIES = {
    "constant": st.fixed_dictionaries({"level": _finite}),
    "linear": st.fixed_dictionaries({"slope": _finite}),
    "affine": st.fixed_dictionaries({"slope": _finite, "intercept": _finite}),
    "logistic-slope": st.fixed_dictionaries(
        {"low": _finite, "high": _finite, "rate": _finite, "center": _finite}),
    "arctan-diffusion": st.fixed_dictionaries(
        {"amplitude": _finite, "curvature": _finite, "center": _finite}),
}


def _assert_scalar_types_match_array(name, params, x):
    """value and derivative give the bits of a one-element array on a Python
    float and on an np.float64."""
    sigma = make_diffusion_field(name, params)
    one = np.array([x])
    with np.errstate(over="ignore", invalid="ignore"):
        want = [_bits(sigma.value(one)), _bits(sigma.derivative(one))]
        for arg in (float(x), np.float64(x)):
            got = [_bits(sigma.value(arg)), _bits(sigma.derivative(arg))]
            assert got == want, (name, params, arg, type(arg))


class TestScalarBranch:
    def test_strategies_cover_the_catalogue(self):
        assert sorted(_PARAM_STRATEGIES) == catalogue_names()

    @pytest.mark.parametrize("name", sorted(_PARAM_STRATEGIES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), x=st.floats(allow_nan=True, allow_infinity=True))
    def test_float_float64_and_array_agree(self, name, data, x):
        params = data.draw(_PARAM_STRATEGIES[name])
        _assert_scalar_types_match_array(name, params, x)

    @pytest.mark.parametrize("name,params", [
        *_CATALOGUE_PARAMS,
        ("logistic-slope", {"low": 0.0, "high": 1.0, "rate": 1.0, "center": 0.0}),
    ])
    @pytest.mark.parametrize("x", _FIXED_EDGES)
    def test_fixed_edges(self, name, params, x):
        _assert_scalar_types_match_array(name, params, x)


def _old_logistic_slope(low, high, rate, center):
    """logistic-slope's array formulas written out of place: the reference
    for the in-place ones, bit for bit."""
    span = high - low

    def expit(t):
        return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(t, -_EXP_CLIP), _EXP_CLIP)))

    def value(x):
        return low + span * expit(rate * (x - center))

    def derivative(x):
        e = expit(rate * (x - center))
        return span * rate * e * (1.0 - e)

    return value, derivative


class TestLogisticInPlace:
    @pytest.mark.parametrize("params", [
        {"low": 0.0, "high": 1.0, "rate": 1.0, "center": 0.0},
        {"low": 0.0, "high": -1.5, "rate": 2.0, "center": 0.5},
        # a span so small that span * e underflows to zero
        {"low": 0.0, "high": 1e-300, "rate": 1.0, "center": 0.0},
        {"low": 0.0, "high": -1e-300, "rate": 1.0, "center": 0.0},
        {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0},
        {"low": 0.3, "high": -0.7, "rate": -1.2, "center": -0.25},
    ])
    def test_arrays_match_old_formulas_and_keep_their_argument(self, params):
        sigma = make_diffusion_field("logistic-slope", params)
        old_value, old_derivative = _old_logistic_slope(**params)
        # the clamp's edges for these parameters and for a unit rate
        edges = [params["center"] + e / params["rate"] for e in (-_EXP_CLIP, _EXP_CLIP)]
        x = np.array([*_FIXED_EDGES, *edges,
                      *(float(np.nextafter(e, d)) for e in edges for d in (-np.inf, np.inf))])
        kept = x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = [sigma.value(x), sigma.derivative(x)]
            want = [old_value(x), old_derivative(x)]
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        assert x.tobytes() == kept.tobytes()
        for v in got:
            assert not np.shares_memory(v, x)


_NEG_NAN = math.copysign(math.nan, -1.0)
_SUBNORMALS = [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308]


class TestUnitShortcuts:
    """On arrays, logistic-slope skips `t *= rate` at rate 1.0 and `v *= span`
    at span 1.0, and clamps with one np.maximum: x * 1.0 has x's bits, so S3's
    drift field (rate 1, span 1, low 0) and S7's sigma (rate 0.9) keep the
    bits of the old out-of-place formulas."""

    S3_DRIFT = {"low": 0.0, "high": 1.0, "rate": 1.0, "center": 12.0}
    S7_SIGMA = {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0}

    @staticmethod
    def points(params):
        center, rate = params["center"], params["rate"]
        # the clamp's edges in x, with their float neighbours, and x values
        # whose rate * (x - center) is a signed zero or a subnormal
        edges = [center + e / rate for e in (-_EXP_CLIP, _EXP_CLIP)]
        return np.array([
            *_FIXED_EDGES, _NEG_NAN, *_SUBNORMALS, *edges,
            *(float(np.nextafter(e, d)) for e in edges for d in (-np.inf, np.inf)),
            *(center + s for s in (0.0, -0.0, *_SUBNORMALS))])

    @pytest.mark.parametrize("params", [S3_DRIFT, S7_SIGMA])
    def test_arrays_match_old_formulas(self, params):
        sigma = make_diffusion_field("logistic-slope", params)
        old_value, old_derivative = _old_logistic_slope(**params)
        x = self.points(params)
        with np.errstate(over="ignore", invalid="ignore"):
            got = [sigma.value(x), sigma.derivative(x)]
            want = [old_value(x), old_derivative(x)]
        assert [_bits(v) for v in got] == [_bits(v) for v in want]

    @pytest.mark.parametrize("params", [S3_DRIFT, S7_SIGMA])
    def test_float_float64_and_array_agree(self, params):
        for x in self.points(params).tolist():
            _assert_scalar_types_match_array("logistic-slope", params, x)

    @pytest.mark.parametrize("rate", [1.0, 0.9, -1.0])
    def test_expit_owned_matches_the_two_sided_clamp(self, rate):
        ts = np.array([*_FIXED_EDGES, _NEG_NAN, *_SUBNORMALS, 61.0, -61.0, 2.5])

        def old(t):
            return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(rate * t, -_EXP_CLIP),
                                                    _EXP_CLIP)))

        assert _bits(_expit_owned(ts.copy(), None if rate == 1.0 else operand(rate))) \
            == _bits(old(ts))


# every closed-form flow: S7's default sigma, a decreasing logistic, one
# entry of each other kind, and each one-signed logistic: both ends negative,
# or one end zero (sigma = A expit(r (x - c)), of either sign and slope)
_CLOSED_FLOWS = [
    *_CATALOGUE_PARAMS,
    ("logistic-slope", {"low": 1.6, "high": 0.8, "rate": -2.0, "center": 0.5}),
    ("logistic-slope", {"low": -0.8, "high": -1.6, "rate": 0.9, "center": 0.0}),
    ("logistic-slope", {"low": -1.6, "high": -0.8, "rate": -2.0, "center": 0.5}),
    ("logistic-slope", {"low": 0.0, "high": 1.0, "rate": 1.0, "center": 0.0}),
    ("logistic-slope", {"low": 0.0, "high": 1.6, "rate": 0.9, "center": 0.0}),
    ("logistic-slope", {"low": 0.0, "high": -1.5, "rate": 2.0, "center": 0.5}),
    ("logistic-slope", {"low": 1.2, "high": 0.0, "rate": 0.7, "center": -0.3}),
    ("logistic-slope", {"low": -0.8, "high": 0.0, "rate": -1.3, "center": 0.2}),
]
# parameters under which sigma is constant: the flow takes the constant form
_DEGENERATE = [
    ("logistic-slope", {"low": 0.8, "high": 1.6, "rate": 0.0, "center": 0.0}),
    ("logistic-slope", {"low": 0.8, "high": 0.8, "rate": 2.0, "center": 0.0}),
    ("logistic-slope", {"low": -0.5, "high": -0.5, "rate": 1.0, "center": 0.0}),
    ("linear", {"slope": 0.0}),
    ("affine", {"slope": 0.0, "intercept": 0.7}),
    ("arctan-diffusion", {"amplitude": 0.5, "curvature": 0.0, "center": 0.3}),
]
_ORACLE_CASES = _CLOSED_FLOWS + _DEGENERATE
_FLOW_GRID = [(y, u) for y in (-2.0, -0.3, -0.0, 0.0, 0.7, 2.5)
              for u in (-3.0, -0.8, 0.05, 1.1, 3.0)]
_NON_FINITE = [np.inf, -np.inf, np.nan]


def _assert_flow_float_matches_array(sigma, y, u):
    """flow on two Python floats and on two np.float64 gives Python floats with
    the bits of a one-element array, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _bits(sigma.flow(np.array([y]), np.array([u])))
        for args in ((float(y), float(u)), (np.float64(y), np.float64(u))):
            got = sigma.flow(*args)
            assert [type(v) for v in got] == [float, float], args
            assert _bits(got) == want, (args, got)


# signed zeros, a subnormal, times past arctan's pole and far into the
# logistic tails, and non-finite values
_FLOW_EDGES = [-0.0, 0.0, 5e-324, -1e-300, 0.3, -2.5, 90.0, -90.0, 1e30, -1e300,
               np.inf, -np.inf, np.nan]


class TestFlowFloatBranch:
    @pytest.mark.parametrize("name,params", _ORACLE_CASES)
    def test_edges_give_the_bits_of_a_one_element_array(self, name, params):
        sigma = make_diffusion_field(name, params)
        for y in _FLOW_EDGES:
            for u in _FLOW_EDGES:
                _assert_flow_float_matches_array(sigma, y, u)

    # ends as far apart as a closed flow allows (fields._RATIO_CAP)
    @pytest.mark.parametrize("name,params", [
        *_ORACLE_CASES,
        ("logistic-slope", {"low": 1.0, "high": 2.0 ** -10, "rate": 1.0, "center": 0.0}),
    ])
    def test_floats_raise_no_floating_point_error(self, name, params):
        """The float branch, which enters no errstate of its own, neither
        trips numpy's error flags nor raises a Python error
        (ZeroDivisionError, OverflowError), and keeps the bits."""
        sigma = make_diffusion_field(name, params)
        for y in _FIXED_EDGES:
            for u in (-0.0, 0.0, 1e-300, -1e-300, 0.37, 1e300, -1e300,
                      math.inf, -math.inf, math.nan):
                want = _bits(sigma.flow(np.array([y]), np.array([u])))
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    got = sigma.flow(y, u)
                assert [type(v) for v in got] == [float, float], (y, u)
                assert _bits(got) == want, (y, u, got)

    @pytest.mark.parametrize("name", sorted(_PARAM_STRATEGIES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), y=st.floats(allow_nan=True, allow_infinity=True),
           u=st.floats(allow_nan=True, allow_infinity=True))
    def test_float_float64_and_array_agree(self, name, data, y, u):
        sigma = make_diffusion_field(name, data.draw(_PARAM_STRATEGIES[name]))
        if sigma.flow is not None:
            _assert_flow_float_matches_array(sigma, y, u)

    @pytest.mark.parametrize("params", [
        {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0},
        {"low": 0.0, "high": 1.6, "rate": 0.9, "center": 0.0},
    ])
    def test_an_element_short_of_convergence_is_nan_on_floats(self, monkeypatch, params):
        sigma = make_diffusion_field("logistic-slope", params)
        monkeypatch.setattr(fields_mod, "_NEWTON_CAP", 1)
        assert math.isnan(sigma.flow(0.2, 1.5)[0])
        _assert_flow_float_matches_array(sigma, 0.2, 1.5)


class TestClosedFlows:
    @pytest.mark.parametrize("name,params", _ORACLE_CASES)
    def test_phi_matches_the_rk4_oracle(self, name, params):
        # where the oracle diverges (arctan-diffusion past its pole), the
        # closed form is not finite
        sigma = make_diffusion_field(name, params)
        for y, u in _FLOW_GRID:
            phi, _ = sigma.flow(y, u)
            try:
                want = jump_flow_phi(sigma, y, u, 1e-10)
            except FlowDivergence:
                assert not np.isfinite(phi), (y, u)
                continue
            assert abs(phi - want) <= 1e-10 * max(1.0, abs(want)), (y, u)

    @pytest.mark.parametrize("name,params", _ORACLE_CASES)
    def test_slope_matches_the_sensitivity_within_its_richardson_gap(self, name, params):
        # exp(acc) is the RK4 sensitivity; its error at 2n substeps is about a
        # fifteenth of its change from n to 2n
        sigma = make_diffusion_field(name, params)
        for y, u in _FLOW_GRID:
            phi, slope = sigma.flow(y, u)
            if not np.isfinite(phi):
                continue
            n = flow_substeps(u)
            coarse = math.exp(flow_with_sensitivity(sigma, y, u, n)[1])
            fine = math.exp(flow_with_sensitivity(sigma, y, u, 2 * n)[1])
            assert abs(slope - fine) <= abs(fine - coarse) + 1e-14 * abs(fine), (y, u)

    @pytest.mark.parametrize("name,params", _ORACLE_CASES)
    def test_arrays_give_the_bits_of_floats(self, name, params):
        sigma = make_diffusion_field(name, params)
        ys, us = (np.array(v) for v in zip(*_FLOW_GRID))
        phi, slope = sigma.flow(ys, us)
        assert phi.shape == slope.shape == ys.shape
        for i, (y, u) in enumerate(_FLOW_GRID):
            assert _bits(sigma.flow(y, u)) == _bits((phi[i], slope[i]))
        # a float y against an array u broadcasts
        assert _bits(sigma.flow(0.7, us)[0]) == _bits(
            [sigma.flow(0.7, float(u))[0] for u in us])

    @pytest.mark.parametrize("name,params", _DEGENERATE)
    def test_degenerate_parameters_take_the_constant_form(self, name, params):
        sigma = make_diffusion_field(name, params)
        level = float(sigma.value(0.0))
        ys, us = (np.array(v) for v in zip(*_FLOW_GRID))
        phi, slope = sigma.flow(ys, us)
        assert _bits(phi) == _bits(ys + level * us)
        assert np.all(slope == 1.0)

    @pytest.mark.parametrize("name,params", _ORACLE_CASES)
    def test_zero_time_returns_y_bit_for_bit(self, name, params):
        sigma = make_diffusion_field(name, params)
        ys = np.array([-0.0, 0.0, 1.5, -2.0, *_NON_FINITE])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (0.0, -0.0):
                phi, slope = sigma.flow(ys, u)
                assert _bits(phi) == _bits(ys)
                assert np.all(slope == 1.0)
                for y in ys.tolist():
                    assert _bits(sigma.flow(y, u)) == _bits((y, 1.0))

    @pytest.mark.parametrize("name,params", _ORACLE_CASES)
    def test_non_finite_arguments_give_non_finite_output(self, name, params):
        sigma = make_diffusion_field(name, params)
        pairs = [(v, 0.5) for v in _NON_FINITE] + [(0.5, v) for v in _NON_FINITE] \
            + [(v, w) for v in _NON_FINITE for w in _NON_FINITE]
        ys, us = (np.array(v) for v in zip(*pairs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, _ = sigma.flow(ys, us)
            assert not np.isfinite(phi).any()
            for y, u in pairs:
                assert not np.isfinite(sigma.flow(y, u)[0])

    @pytest.mark.parametrize("params", [
        # sigma changes sign
        {"low": 0.5, "high": -0.5, "rate": 1.0, "center": 0.0},
        {"low": -0.5, "high": 1.6, "rate": 0.9, "center": 0.0},
        # S / (H r L) underflows to 0
        {"low": 1.0, "high": 1e-171, "rate": 1e-171, "center": 0.0},
        # with a zero end, r A underflows to 0, or 1 / r overflows
        {"low": 0.0, "high": 1e-200, "rate": 1e-200, "center": 0.0},
        {"low": 1.0, "high": 0.0, "rate": 1e-310, "center": 0.0},
    ])
    def test_logistic_without_a_closed_form_keeps_none(self, params):
        assert make_diffusion_field("logistic-slope", params).flow is None

    def test_arctan_past_its_pole_is_not_finite(self):
        # theta = arctan(y) + u; tan(3.5) and tan(-3.5) would wrap to finite values
        sigma = make_diffusion_field("arctan-diffusion",
                                     {"amplitude": 1.0, "curvature": 1.0, "center": 0.0})
        us = np.array([1.6, 3.5, 40.0, -1.6, -3.5, 1.5, -1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, _ = sigma.flow(0.0, us)
        assert not np.isfinite(phi[:5]).any()
        assert phi[5:].tolist() == pytest.approx([math.tan(1.5), -math.tan(1.5)], rel=1e-14)

    @pytest.mark.parametrize("params,composes", [
        ({"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0}, True),
        # a slow rate makes S / (H r L) large
        ({"low": 2.0, "high": 1.0, "rate": 1e-6, "center": 0.0}, True),
        # a steep rate and ends _RATIO_CAP apart make sigma change a
        # thousandfold across the center, and dphi/dy with it, so composing
        # loses digits
        ({"low": 2.0 ** -5, "high": 2.0 ** 5, "rate": 1e3, "center": 0.0}, False),
        ({"low": 2.0 ** 5, "high": 2.0 ** -5, "rate": -1e3, "center": 5.0}, False),
    ])
    def test_newton_converges_far_out(self, params, composes):
        # the flow is a group in u: phi(phi(y, u1), u2) = phi(y, u1 + u2)
        sigma = make_diffusion_field("logistic-slope", params)
        rng = np.random.default_rng(11)
        for scale in (1.0, 100.0, 1e4):
            ys, u1, u2 = rng.uniform(-scale, scale, (3, 2000))
            once, _ = sigma.flow(ys, u1 + u2)
            twice, _ = sigma.flow(sigma.flow(ys, u1)[0], u2)
            assert np.isfinite(once).all() and np.isfinite(twice).all()
            if composes:
                assert np.allclose(once, twice, rtol=1e-12, atol=1e-12)

    def test_newton_needs_few_steps_on_s7_sigma(self, monkeypatch):
        sigma = make_diffusion_field("logistic-slope",
                                     {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0})
        ys, us = np.random.default_rng(12).uniform(-100.0, 100.0, (2, 20000))
        whole, _ = sigma.flow(ys, us)
        monkeypatch.setattr(fields_mod, "_NEWTON_CAP", 8)
        assert _bits(sigma.flow(ys, us)[0]) == _bits(whole)

    @pytest.mark.parametrize("params", [
        {"low": 0.0, "high": 1.6, "rate": 0.9, "center": 0.0},
        {"low": -0.8, "high": 0.0, "rate": -1.3, "center": 0.2},
    ])
    def test_newton_needs_few_steps_with_a_zero_end(self, monkeypatch, params):
        # the starts below the root keep the count low where the Euler step
        # lands far out in the tail, in which Newton's method gains about
        # 1 / r a step
        sigma = make_diffusion_field("logistic-slope", params)
        ys, us = np.random.default_rng(13).uniform(-100.0, 100.0, (2, 20000))
        whole, _ = sigma.flow(ys, us)
        assert np.isfinite(whole).all()
        monkeypatch.setattr(fields_mod, "_NEWTON_CAP", 12)
        assert _bits(sigma.flow(ys, us)[0]) == _bits(whole)

    @pytest.mark.parametrize("params", [
        {"low": 0.0, "high": 1.6, "rate": 0.9, "center": 0.0},
        {"low": 1.2, "high": 0.0, "rate": 0.7, "center": -0.3},
    ])
    def test_zero_end_matches_the_oracle_far_out(self, params):
        # from y = 0 over u = -90 the Euler step lands some 70 units past the
        # root, where sigma is below 1e-26; at y = -900 or 900 (one each side
        # of the center per field) sigma is below the clamp and the flow
        # moves y by less than an ulp
        sigma = make_diffusion_field("logistic-slope", params)
        for y in (-900.0, -40.0, 0.0, 40.0, 900.0):
            for u in (-90.0, 90.0):
                phi, _ = sigma.flow(y, u)
                want = jump_flow_phi(sigma, y, u, 1e-10)
                assert abs(phi - want) <= 1e-10 * max(1.0, abs(want)), (y, u)

    def test_zero_end_flows_across_the_tail(self):
        # sigma = 1.6 expit(0.9 x): in t = 0.9 x, g(t) = t - e^{-t} moves by
        # tau = 1.44 u. From y = 0 over u = -1e30 the flow ends at t near -69,
        # where sigma lies below the clamp at t = -60, and each Newton step
        # needs the unclamped sigma; from y = 900, where e^{-t} underflows,
        # over u = -700 it crosses the whole tail to t near -5
        sigma = make_diffusion_field("logistic-slope",
                                     {"low": 0.0, "high": 1.6, "rate": 0.9, "center": 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, _ = sigma.flow(np.array([0.0, 900.0]), np.array([-1e30, -700.0]))
        t = 0.9 * phi
        assert t[0] == pytest.approx(-math.log(1.44e30), rel=1e-13)
        assert t[1] - math.exp(-t[1]) == pytest.approx(0.9 * 900.0 - 1.44 * 700.0, rel=1e-12)

    def test_an_element_short_of_convergence_is_nan(self, monkeypatch):
        # one Newton step is the Euler step, which must not pass for the flow
        sigma = make_diffusion_field("logistic-slope",
                                     {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0})
        monkeypatch.setattr(fields_mod, "_NEWTON_CAP", 1)
        phi, slope = sigma.flow(np.array([0.2, 0.2]), np.array([1.5, 1e-20]))
        assert np.isnan(phi[0]) and np.isnan(slope[0])
        assert phi[1] == 0.2 + float(sigma.value(0.2)) * 1e-20


# The array formulas as they were before the operand rule: Python-float
# operands, ndarray.clip and np.divide(1.0, .). The rewritten array branches
# must keep their bits.
def _ref_expit_owned(t, rate):
    if rate != 1.0:
        t *= rate
    t.clip(-_EXP_CLIP, _EXP_CLIP, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def _ref_logistic(low, high, rate, center):
    span = high - low
    gain = span * rate
    add_low = not (low == 0.0 and span > 0.0)

    def value(x):
        v = _ref_expit_owned(x - center, rate)
        if span != 1.0:
            v *= span
        if add_low:
            v += low
        return v

    def derivative(x):
        e = _ref_expit_owned(x - center, rate)
        w = np.subtract(1.0, e)
        e *= gain
        e *= w
        return e

    return value, derivative


def _ref_log_mix(t, v):
    arg = np.expm1(v)
    arg /= 1.0 + np.exp(t)
    log = np.log1p(arg)
    far = ~(np.abs(arg) < 0.5)
    if far.any():
        t = t[far]
        log[far] = np.logaddexp(-np.logaddexp(0.0, -t), v[far] - np.logaddexp(0.0, t))
    return log


def _ref_newton(x, residual, step, sigma, advance):
    phi = np.full_like(x, np.nan)
    rows = np.arange(x.size)
    for _ in range(fields_mod._NEWTON_CAP):
        x_new = x - step
        going = np.abs(step) > fields_mod._NEWTON_TOL * np.maximum(1.0, np.abs(x_new))
        if not going.all():
            phi[rows[~going]] = x_new[~going]
            if not going.any():
                break
            rows, x, x_new, residual = (a[going] for a in (rows, x, x_new, residual))
        residual = advance(residual, x, x_new - x)
        x = x_new
        step = residual * sigma(x)
    return phi


def _ref_one_signed_flow(low, high, rate, center):
    """The one-signed logistic-slope flow on arrays: `_flow`'s array branch
    around the closed form."""
    value, _ = _ref_logistic(low, high, rate, center)
    scale = (high - low) / (high * rate * low)
    log_ratio = math.log(abs(high)) - math.log(abs(low))

    def advance(residual, x, d):
        return residual + d / high - scale * _ref_log_mix(log_ratio + rate * (x - center),
                                                          -rate * d)

    def closed(y, u):
        sigma_y = value(y)
        phi = _ref_newton(y, -u, -u * sigma_y, value, advance)
        return phi, value(phi) / sigma_y

    def flow(y, u):
        y, u = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(u, dtype=float))
        shape = y.shape
        y, u = y.ravel(), u.ravel()
        live = np.isfinite(y) & np.isfinite(u) & (u != 0.0)
        with np.errstate(all="ignore"):
            if live.all():
                phi, slope = closed(y, u)
            else:
                phi = np.where(u == 0.0, y, np.nan)
                slope = np.where(u == 0.0, 1.0, np.nan)
                if live.any():
                    phi[live], slope[live] = closed(y[live], u[live])
        return phi.reshape(shape)[()], slope.reshape(shape)[()]

    return flow, advance


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# signed zeros, infinities, nans of both signs with payloads (quiet and
# signalling), subnormals and the expit clamp's edges with their neighbours
_SPECIALS = np.array([
    -0.0, 0.0, np.inf, -np.inf, np.nan, _NEG_NAN,
    _nan(0x7FF8000000000123), _nan(0xFFF8000000000456), _nan(0x7FF0000000000001),
    _nan(0xFFF4000000000789), *_SUBNORMALS, -_EXP_CLIP, _EXP_CLIP, *_CLAMP_NEIGHBOURS])
_any_float = st.floats(allow_nan=True, allow_infinity=True)
_drawn = st.lists(_any_float, min_size=1, max_size=24)
_unit = st.floats(-10.0, 10.0)
# S3's drift, S7's drift and sigma, the unit-rate and unit-span shortcuts,
# then drawn parameters
_VALUE_PARAMS = st.sampled_from([
    (0.0, 1.0, 1.0, 12.0), (0.0, 0.5, 1.0, 0.0), (0.8, 1.6, 0.9, 0.0),
    (0.3, 1.3, 1.0, -0.5), (-0.2, -1.2, -1.0, 0.25)]) | st.tuples(_unit, _unit, _unit, _unit)
# one-signed ends within a factor 100 of each other
_end = st.floats(0.01, 1.0)
_ONE_SIGNED = st.tuples(_end, _end, st.sampled_from([1.0, -1.0]),
                        st.floats(0.05, 5.0) | st.floats(-5.0, -0.05), st.floats(-3.0, 3.0))


def _points(values, low, high, rate, center):
    """values, the specials, and the specials moved onto the clamp's edges in x."""
    extra = [center + t / rate for t in _SPECIALS.tolist()] if rate != 0.0 else []
    return np.array([*values, *_SPECIALS, *extra])


class TestOperandRule:
    """The array branches keep the bits of the formulas they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(params=_VALUE_PARAMS, values=_drawn)
    def test_value_and_derivative(self, params, values):
        sigma = make_diffusion_field("logistic-slope", dict(zip(
            ("low", "high", "rate", "center"), params)))
        ref_value, ref_derivative = _ref_logistic(*params)
        x = _points(values, *params)
        with np.errstate(all="ignore"):
            got = [sigma.value(x), sigma.derivative(x)]
            want = [ref_value(x), ref_derivative(x)]
        assert [_bits(v) for v in got] == [_bits(v) for v in want]

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(_any_float, _any_float), min_size=1, max_size=24))
    def test_log_mix(self, pairs):
        t = np.array([p[0] for p in pairs] + [*_SPECIALS] + [0.3] * _SPECIALS.size)
        v = np.array([p[1] for p in pairs] + [0.3] * _SPECIALS.size + [*_SPECIALS])
        with np.errstate(all="ignore"):
            assert _bits(fields_mod._log_mix(t, v)) == _bits(_ref_log_mix(t.copy(), v.copy()))

    @settings(max_examples=100, deadline=None)
    @given(ends=_ONE_SIGNED, ys=_drawn, us=_drawn)
    def test_one_signed_flow(self, ends, ys, us):
        a, b, sign, rate, center = ends
        assume(a != b)
        params = {"low": sign * a, "high": sign * b, "rate": rate, "center": center}
        sigma = make_diffusion_field("logistic-slope", params)
        ref_flow, _ = _ref_one_signed_flow(*params.values())
        n = min(len(ys), len(us))
        y = np.array([*ys[:n], *_SPECIALS, *[0.7] * _SPECIALS.size])
        u = np.array([*us[:n], *[1.3] * _SPECIALS.size, *_SPECIALS])
        assert _bits(sigma.flow(y, u)) == _bits(ref_flow(y, u))

    @pytest.mark.parametrize("params", [
        {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0},
        {"low": 0.0, "high": 1.6, "rate": 0.9, "center": 0.0},
        {"low": -0.8, "high": 0.0, "rate": -1.3, "center": 0.2},
    ])
    @settings(max_examples=60, deadline=None)
    @given(ys=_drawn, us=_drawn)
    def test_newton_loop(self, params, ys, us):
        # each entry's own Newton solve, run once by the loop and once by the
        # reference loop
        sigma = make_diffusion_field("logistic-slope", params)
        n = min(len(ys), len(us))
        y = np.array([*ys[:n], *_SPECIALS, *[0.7] * _SPECIALS.size, -80.0, 80.0])
        u = np.array([*us[:n], *[1.3] * _SPECIALS.size, *_SPECIALS, 90.0, -90.0])
        got = sigma.flow(y, u)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fields_mod, "_newton", _ref_newton)
            want = sigma.flow(y, u)
        assert _bits(got) == _bits(want)

    def test_newton_solve_with_the_same_callables(self):
        ref_value, _ = _ref_logistic(0.8, 1.6, 0.9, 0.0)
        _, advance = _ref_one_signed_flow(0.8, 1.6, 0.9, 0.0)
        y = np.array([*np.linspace(-90.0, 90.0, 41), *_SPECIALS])
        u = np.resize([2.5, -0.7, 40.0, -1e-12, 1e300], y.size)
        with np.errstate(all="ignore"):
            got = fields_mod._newton(y, -u, -u * ref_value(y), ref_value, advance)
            want = _ref_newton(y, -u, -u * ref_value(y), ref_value, advance)
        assert _bits(got) == _bits(want)


# ends far apart: the closed form loses about eps times their ratio
_FAR_APART = [(1.0, 1e-17), (1.0, 1e-8), (1.0, 1e-3), (1e-3, 1.0), (-1e-8, -1.0),
              (1.0, 2.0 ** -10), (1.0, 2.0 ** -10 * (1.0 - 2.0 ** -52))]


class TestRatioCap:
    @pytest.mark.parametrize("low,high", _FAR_APART)
    def test_closed_only_within_the_cap(self, low, high):
        sigma = make_diffusion_field("logistic-slope",
                                     {"low": low, "high": high, "rate": 1.0, "center": 0.0})
        within = max(abs(high / low), abs(low / high)) <= fields_mod._RATIO_CAP
        assert (sigma.flow is not None) == within

    @pytest.mark.parametrize("low,high", _FAR_APART)
    def test_flows_match_the_rk4_oracle_on_floats_and_arrays(self, low, high):
        # low = 1, high = 1e-17 gave phi = -16.21 from 0 over 30, a flow of a
        # positive sigma running backwards; the oracle gives 3.3207. Past the
        # cap the kernel runs: jump_flow_phi on floats, flow_map_array on arrays
        sigma = make_diffusion_field("logistic-slope",
                                     {"low": low, "high": high, "rate": 1.0, "center": 0.0})
        ys, us = np.array([0.0, 0.0, -5.0, 5.0]), np.array([3.0, 30.0, 20.0, -20.0])
        pairs = list(zip(ys.tolist(), us.tolist()))
        want = [jump_flow_phi(sigma, y, u, 1e-11) for y, u in pairs]
        if sigma.flow is None:
            # the array kernel runs fixed substeps, without Richardson steps
            runs, tol = [flow_map_array(sigma, ys, us)], 1e-6
        else:
            runs, tol = [[sigma.flow(y, u)[0] for y, u in pairs], sigma.flow(ys, us)[0]], 1e-10
        for got in runs:
            for g, w in zip(np.asarray(got).tolist(), want):
                assert abs(g - w) <= tol * max(1.0, abs(w)), (g, w)
