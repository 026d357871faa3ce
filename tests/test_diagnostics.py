import math
import warnings

import numpy as np
import pytest

from levyreg.diagnostics import (
    SampleBatch,
    default_threshold,
    detect_atoms,
    deterministic_skeleton,
    lattice_concentration,
    two_sample_ks,
)
from levyreg.flow_engine import ScalarField


class TestDeterministicSkeleton:
    def test_linear_decay(self):
        a = ScalarField(lambda x: -x, lambda x: -1.0)
        got = deterministic_skeleton(a, 0.0, 1.0, 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_pure_drift(self):
        a = ScalarField(lambda x: 0.0, lambda x: 0.0)
        assert deterministic_skeleton(a, 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_constant_field(self):
        a = ScalarField(lambda x: 0.7, lambda x: 0.0)
        assert deterministic_skeleton(a, 0.0, 1.5, 2.0) == pytest.approx(
            1.5 + 0.7 * 2.0, abs=1e-10)


class TestDetectAtoms:
    def test_point_mass(self):
        batch = SampleBatch(np.full(2000, 1.25))
        report = detect_atoms(batch, window=1e-6, threshold=0.5)
        assert report.atoms_present
        ((loc, mass, width),) = report.candidates
        assert loc == pytest.approx(1.25)
        assert mass == 1.0

    def test_continuous_uniform_no_false_positive(self):
        gen = np.random.default_rng(5)
        batch = SampleBatch(gen.uniform(0.0, 1.0, 10_000))
        report = detect_atoms(batch, window=1e-6, threshold=0.01)
        assert report.atoms_present is False

    def test_mixture_detects_atom_with_right_mass(self):
        gen = np.random.default_rng(7)
        n = 20_000
        p_atom = 0.15
        is_atom = gen.uniform(size=n) < p_atom
        vals = np.where(is_atom, 0.42, gen.uniform(0.0, 1.0, n))
        batch = SampleBatch(vals)
        report = detect_atoms(batch)
        assert report.atoms_present
        loc, mass, _ = report.candidates[0]
        assert loc == pytest.approx(0.42, abs=report.window)
        se = math.sqrt(p_atom * (1 - p_atom) / n)
        assert mass == pytest.approx(p_atom, abs=4 * se + report.window)

    def test_scale_equivariance(self):
        gen = np.random.default_rng(11)
        n = 5000
        vals = np.where(gen.uniform(size=n) < 0.2, -0.5,
                        gen.uniform(-2.0, 2.0, n))
        scale, shift = 3.5, -1.2
        base = detect_atoms(SampleBatch(vals), window=1e-5, threshold=0.05)
        moved = detect_atoms(SampleBatch(scale * vals + shift),
                             window=scale * 1e-5, threshold=0.05)
        assert base.atoms_present == moved.atoms_present
        assert len(base.candidates) == len(moved.candidates)
        for (l0, m0, _), (l1, m1, _) in zip(base.candidates, moved.candidates):
            assert l1 == pytest.approx(scale * l0 + shift, abs=1e-4)
            assert m1 == pytest.approx(m0, abs=0.02)

    def test_mass_estimator_tightens_with_count(self):
        gen = np.random.default_rng(13)
        p_atom = 0.2

        def spread(n, reps=60):
            masses = []
            for _ in range(reps):
                vals = np.where(gen.uniform(size=n) < p_atom, 1.0,
                                gen.uniform(0.0, 3.0, n))
                rep = detect_atoms(SampleBatch(vals), window=1e-9, threshold=0.05)
                masses.append(rep.candidates[0][1])
            return np.std(masses)

        assert spread(16_000) < 0.62 * spread(4_000)

    def test_preconditions(self):
        batch = SampleBatch(np.linspace(0, 1, 100))
        with pytest.raises(ValueError):
            detect_atoms(batch)
        big = SampleBatch(np.linspace(0, 1, 2000))
        with pytest.raises(ValueError):
            detect_atoms(big, window=-1.0)


class TestLatticeConcentration:
    def test_exact_lattice_sample(self):
        gen = np.random.default_rng(3)
        spacing = 2.0 ** -12
        vals = spacing * gen.integers(0, 4096, 5000)
        got = lattice_concentration(SampleBatch(vals), spacing, 1e-9)
        assert got == 1.0

    def test_shifted_lattice_found_by_offset_scan(self):
        gen = np.random.default_rng(4)
        spacing = 2.0 ** -10
        shift = 0.25 * spacing  # on the offset grid: 250/1000 of a period
        vals = shift + spacing * gen.integers(0, 1024, 4000)
        got = lattice_concentration(SampleBatch(vals), spacing, 1e-9)
        assert got == 1.0

    def test_uniform_sample_tube_mass(self):
        gen = np.random.default_rng(6)
        spacing = 2.0 ** -12
        halfwidth = 1e-9
        vals = gen.uniform(0.0, 1.0, 1_000_000)
        got = lattice_concentration(SampleBatch(vals), spacing, halfwidth)
        # expected tube mass 2 * hw / spacing ~ 8.2e-6; the offset scan takes a
        # max over 1000 overlapping counts, so allow a few standard deviations
        assert got <= 4.0 * (2.0 * halfwidth / spacing)

    def test_monotone_in_halfwidth_and_bounded(self):
        gen = np.random.default_rng(8)
        vals = gen.normal(0.0, 1.0, 4000)
        batch = SampleBatch(vals)
        spacing = 0.01
        widths = [1e-5, 1e-4, 1e-3, 4e-3]
        fracs = [lattice_concentration(batch, spacing, w) for w in widths]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    def test_halfwidth_bound(self):
        with pytest.raises(ValueError):
            lattice_concentration(SampleBatch(np.zeros(10)), 0.01, 0.006)


class TestNoNumpyWarnings:
    def test_atom_at_the_top_of_the_float_range_and_empty_lattice_sample(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = detect_atoms(SampleBatch(np.full(1000, 1e308))).candidates[0]
            bottom = detect_atoms(SampleBatch(np.full(1000, -1e308))).candidates[0]
            empty = lattice_concentration(SampleBatch(np.empty(0)), 0.01, 1e-3)
        assert top[:2] == (1e308, 1.0) and bottom[:2] == (-1e308, 1.0)
        assert math.isnan(empty)


class TestTwoSampleKs:
    def test_self_comparison_zero(self):
        gen = np.random.default_rng(9)
        batch = SampleBatch(gen.normal(size=2000))
        stat, crit = two_sample_ks(batch, batch)
        assert stat == 0.0
        assert crit == pytest.approx(1.628 * math.sqrt(2 / 2000), rel=1e-12)

    def test_independent_uniforms_usually_pass(self):
        gen = np.random.default_rng(10)
        passes = 0
        reps = 100
        for _ in range(reps):
            b1 = SampleBatch(gen.uniform(size=10_000))
            b2 = SampleBatch(gen.uniform(size=10_000))
            stat, crit = two_sample_ks(b1, b2)
            passes += stat < crit
        assert passes >= 96

    def test_shifted_uniform_statistic(self):
        gen = np.random.default_rng(12)
        b1 = SampleBatch(gen.uniform(0.0, 1.0, 20_000))
        b2 = SampleBatch(gen.uniform(0.5, 1.5, 20_000))
        stat, _ = two_sample_ks(b1, b2)
        assert stat == pytest.approx(0.5, abs=0.02)

    def test_invariant_under_monotone_transform(self):
        gen = np.random.default_rng(14)
        v1 = gen.normal(size=1500)
        v2 = gen.normal(0.3, 1.0, 1500)
        s_raw, _ = two_sample_ks(SampleBatch(v1), SampleBatch(v2))
        s_cub, _ = two_sample_ks(SampleBatch(v1 ** 3), SampleBatch(v2 ** 3))
        assert s_raw == pytest.approx(s_cub, abs=1e-12)


class TestDefaults:
    def test_threshold_shape(self):
        assert default_threshold(10_000) == pytest.approx(
            3.0 * math.sqrt(math.log(10_000) / 10_000))
