import math

import numpy as np
import pytest

from levyreg.levy_spec import (
    DensityForm,
    FiniteAtomic,
    LevyTriplet,
    TruncatedAtomicFamily,
    default_eps_grid,
    doblin_predicts_atoms,
    dyadic_family,
    is_infinite,
    kallenberg_b_profile,
    mu_measure,
    total_rate,
)


def power_density(p: float) -> DensityForm:
    return DensityForm(intensity=lambda z: abs(z) ** (-p), abs_max=1.0)


def log_grid_quadrature(g, lo, hi, n=200_001):
    """Independent oracle: trapezoid on a log-spaced grid over {lo <= |z| <= hi}."""
    z = np.logspace(math.log10(lo), math.log10(hi), n)
    vals = np.array([g(t) + g(-t) for t in z])
    return float(np.trapezoid(vals, z))


class TestTotalRate:
    def test_single_atom_above_cutoff(self):
        assert total_rate(FiniteAtomic(((1.0, 2.0),)), 0.5) == 2.0

    def test_single_atom_below_cutoff(self):
        assert total_rate(FiniteAtomic(((1.0, 2.0),)), 1.5) == 0.0

    def test_power_density_closed_form(self):
        # 2 * int_{0.25}^{1} z^-3/2 dz = 4 (2 - 1) = 4.0
        spec = power_density(1.5)
        got = total_rate(spec, 0.25)
        assert got == pytest.approx(4.0, rel=1e-9)
        oracle = log_grid_quadrature(lambda z: abs(z) ** -1.5, 0.25, 1.0)
        assert got == pytest.approx(oracle, rel=1e-7)

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            total_rate(FiniteAtomic(((1.0, 2.0),)), 0.0)

    def test_dyadic_family_total(self):
        fam = dyadic_family(12)
        # sum 2^n for n=1..12 = 8190
        assert total_rate(fam, 2.0 ** -12) == 8190.0
        assert total_rate(fam, 2.0 ** -6) == 126.0


class TestIsInfinite:
    def test_finite_atomic(self):
        assert is_infinite(FiniteAtomic(((1.0, 2.0), (-0.3, 5.0)))) is False

    def test_family_flag(self):
        assert is_infinite(dyadic_family(8)) is True
        fam = dyadic_family(8, idealized_infinite=False)
        assert is_infinite(fam) is False

    def test_power_three_halves_diverges(self):
        assert is_infinite(power_density(1.5)) is True

    def test_inverse_z_diverges(self):
        # constant shell masses; the measure is log-divergent near 0
        assert is_infinite(power_density(1.0)) is True

    def test_bounded_intensity_is_finite(self):
        assert is_infinite(DensityForm(intensity=lambda z: 1.0, abs_max=1.0)) is False

    def test_doblin(self):
        assert doblin_predicts_atoms(FiniteAtomic(((1.0, 2.0),))) is True
        assert doblin_predicts_atoms(dyadic_family(12)) is False
        assert doblin_predicts_atoms(power_density(1.5)) is False


class TestMuMeasure:
    def test_no_atoms_below_eps(self):
        assert mu_measure(FiniteAtomic(((1.0, 2.0),)), 0.5) == 0.0

    def test_single_small_atom(self):
        got = mu_measure(FiniteAtomic(((0.1, 3.0),)), 0.5)
        assert got == pytest.approx(3.0 * 0.01 / 1.01, rel=1e-12)

    def test_power_density_small_eps(self):
        spec = power_density(1.5)
        eps = 1e-4
        got = mu_measure(spec, eps)
        # leading term 2 int_0^eps z^1/2 dz = (4/3) eps^3/2
        assert got == pytest.approx((4.0 / 3.0) * eps ** 1.5, rel=1e-6)
        oracle = log_grid_quadrature(
            lambda z: abs(z) ** -1.5 * z * z / (1.0 + z * z), 1e-12, eps)
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            mu_measure(power_density(1.5), 1.5)

    def test_monotone_in_eps_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n_atoms = rng.integers(1, 8)
            atoms = tuple(
                (float(rng.uniform(-2, 2)) or 0.5, float(rng.uniform(0, 3)))
                for _ in range(n_atoms))
            spec = FiniteAtomic(atoms)
            total_mu = sum(r * s * s / (1 + s * s) for s, r in atoms)
            eps_grid = np.sort(rng.uniform(0.01, 0.99, 20))
            vals = [mu_measure(spec, float(e)) for e in eps_grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(v <= total_mu + 1e-12 for v in vals)

    def test_atom_sum_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            atoms = tuple((float(rng.uniform(0.01, 1.5)), float(rng.uniform(0, 4)))
                          for _ in range(6))
            spec = FiniteAtomic(atoms)
            for eps in (0.05, 0.3, 0.9):
                direct = sum(r * s * s / (1 + s * s)
                             for s, r in atoms if abs(s) < eps)
                assert mu_measure(spec, eps) == pytest.approx(direct, abs=1e-12)


class TestKallenbergProfile:
    def test_power_density_ratio_value(self):
        profile = kallenberg_b_profile(power_density(1.5), [1e-2, 1e-3, 1e-4])
        eps, ratio = profile.grid[-1]
        assert eps == 1e-4
        expected = (4.0 / 3.0) * 1e-6 / (1e-8 * abs(math.log(1e-4)))
        assert expected == pytest.approx(14.476, abs=5e-3)
        assert ratio == pytest.approx(expected, rel=1e-5)

    def test_power_density_diverges_along_default_grid(self):
        profile = kallenberg_b_profile(power_density(1.5))
        ratios = profile.ratios()
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert profile.diverging is True
        assert profile.convolution_condition == "not evaluated"

    def test_atomic_zero_below_smallest_atom(self):
        profile = kallenberg_b_profile(FiniteAtomic(((0.1, 3.0), (1.0, 2.0))), [0.05, 0.01])
        assert profile.ratios() == [0.0, 0.0]
        assert profile.diverging is False

    def test_inverse_z_ratio_vanishes(self):
        # mu(-eps, eps) ~ eps^2 so the ratio decays like 1/|log eps|
        profile = kallenberg_b_profile(power_density(1.0), [1e-2, 1e-3, 1e-4])
        ratios = profile.ratios()
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert profile.diverging is False
        assert ratios[-1] == pytest.approx(1.0 / abs(math.log(1e-4)), rel=0.02)

    def test_ratio_invariant_under_large_atoms(self):
        base = FiniteAtomic(((0.05, 2.0), (0.3, 1.0)))
        fattened = FiniteAtomic(base.atoms + ((1.0, 7.0), (-2.5, 3.0)))
        grid = [0.5, 0.2, 0.04, 0.01]
        assert kallenberg_b_profile(base, grid).ratios() == \
            kallenberg_b_profile(fattened, grid).ratios()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            kallenberg_b_profile(power_density(1.5), [])


class TestSpecValidation:
    def test_zero_atom_size_rejected(self):
        with pytest.raises(ValueError):
            FiniteAtomic(((0.0, 1.0),))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FiniteAtomic(((1.0, -1.0),))

    def test_family_sizes_must_decrease(self):
        with pytest.raises(ValueError):
            TruncatedAtomicFamily(
                size_of_level=lambda n: 0.5,
                rate_of_level=lambda n: 1.0,
                levels=3,
                idealized_infinite=True,
            )

    def test_triplet_variance_nonnegative(self):
        with pytest.raises(ValueError):
            LevyTriplet(drift=0.0, jumps=FiniteAtomic(((1.0, 1.0),)),
                        brownian_variance=-1.0)

    def test_default_grid_shape(self):
        grid = default_eps_grid()
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(1e-6)
        assert all(b < a for a, b in zip(grid, grid[1:]))
