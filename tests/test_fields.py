import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyreg.fields import (
    _EXP_CLIP,
    _expit,
    canonical_params,
    catalogue_names,
    make_diffusion_field,
    make_scalar_field,
)


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


class TestJet:
    @pytest.mark.parametrize("name,params", _CATALOGUE_PARAMS)
    def test_jet_is_value_and_derivative_bit_for_bit(self, name, params):
        sigma = make_diffusion_field(name, params)
        xs = np.array(_EDGE_POINTS)
        with np.errstate(over="ignore", invalid="ignore"):
            for x in [*_EDGE_POINTS, xs]:
                value, slope = sigma.jet(x)
                assert _bits(value) == _bits(sigma.value(x))
                assert _bits(slope) == _bits(sigma.derivative(x))

    def test_logistic_jet_is_fused(self):
        assert make_diffusion_field("logistic-slope").fused_jet is not None

    def test_expit_clamp_matches_clip(self):
        ts = np.array([-1e300, -61.0, -60.0, -59.9, -1.0, -0.0, 0.0, 2.5, 59.9,
                       60.0, 61.0, 1e300, np.inf, -np.inf, np.nan,
                       *_CLAMP_NEIGHBOURS])

        def clipped(t):
            return 1.0 / (1.0 + np.exp(-np.clip(t, -_EXP_CLIP, _EXP_CLIP)))

        assert _bits(_expit(ts)) == _bits(clipped(ts))
        # Python floats, then np.float64 scalars
        for t in [*ts.tolist(), *ts]:
            assert _bits(_expit(t)) == _bits(clipped(t))


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
    """value, derivative and jet give the bits of a one-element array on a
    Python float and on an np.float64."""
    sigma = make_diffusion_field(name, params)
    one = np.array([x])
    with np.errstate(over="ignore", invalid="ignore"):
        want = [_bits(sigma.value(one)), _bits(sigma.derivative(one)),
                *map(_bits, sigma.jet(one))]
        for arg in (float(x), np.float64(x)):
            got = [_bits(sigma.value(arg)), _bits(sigma.derivative(arg)),
                   *map(_bits, sigma.jet(arg))]
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
