import dataclasses
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyreg import batch as batch_mod
from levyreg.batch import (
    _brownian,
    _sweep,
    _unsorted,
    doss_terminals,
    flow_map_array,
    flow_sensitivity_array,
    marcus_terminals,
    ode_terminals,
    pack_paths,
)
from levyreg.fields import make_diffusion_field, make_scalar_field
from levyreg.flow_engine import rk4_step, solve_random_ode
from levyreg.levy_spec import DensityForm, FiniteAtomic, LevyTriplet
from levyreg.marcus import FlowDivergence, flow_with_sensitivity, jump_flow_phi, marcus_solve
from levyreg.path_sampler import BrownianSkeleton, LevyPath, path_law, sample_path
from levyreg.rng import RngStream
from levyreg.transforms import doss_sussman_solve

A_FIELD = make_scalar_field("logistic-slope",
                            {"low": 0.0, "high": 0.8, "rate": 1.1, "center": 0.3})
SIGMA = make_diffusion_field("logistic-slope",
                             {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0})
TRIPLET = LevyTriplet(drift=0.15, jumps=FiniteAtomic(((0.4, 2.0), (-0.3, 1.5))))
TRIPLET_BROWN = LevyTriplet(drift=0.15, jumps=FiniteAtomic(((0.4, 2.0),)),
                            brownian_variance=0.3)


def draw_paths(triplet, n, seed, cells):
    return [sample_path(triplet, 1.0, 0.1, gen=RngStream(seed, i).generator(),
                        brownian_cells=cells)
            for i in range(n)]


PLAIN = LevyPath(1.0, 0.1, np.array([0.5]), np.array([1.0]))


# a path with a Brownian part after one without lost it (z_terminal 1.1 where
# the path's terminal is 5.1), and in the other order raised TypeError
@pytest.mark.parametrize("other,message", [
    (dataclasses.replace(PLAIN, horizon=2.0), "horizon"),
    (dataclasses.replace(PLAIN, drift_rate=0.2), "drift"),
    (dataclasses.replace(PLAIN, brownian=BrownianSkeleton(np.array([0.0, 1.0]),
                                                          np.array([0.0, 4.0]))),
     "Brownian part")])
@pytest.mark.parametrize("other_first", [False, True])
def test_pack_paths_rejects_a_mixed_batch(other, message, other_first):
    paths = [other, PLAIN] if other_first else [PLAIN, other]
    with pytest.raises(ValueError, match=message):
        pack_paths(paths, 4)
    assert pack_paths([other, other], 4).z_terminal.tolist() == [other.terminal] * 2


class TestFlowArrays:
    def test_flow_map_matches_scalar(self):
        rng = np.random.default_rng(1)
        ys = rng.uniform(-1.0, 1.0, 16)
        us = rng.uniform(-0.8, 0.8, 16)
        got = flow_map_array(SIGMA, ys, us)
        for y, u, g in zip(ys, us, got):
            assert g == pytest.approx(jump_flow_phi(SIGMA, float(y), float(u), 1e-12),
                                      abs=1e-8)

    def test_sensitivity_matches_scalar(self):
        rng = np.random.default_rng(2)
        ys = rng.uniform(-1.0, 1.0, 8)
        us = rng.uniform(-0.8, 0.8, 8)
        phi, acc = flow_sensitivity_array(SIGMA, ys, us)
        for y, u, p, a_ in zip(ys, us, phi, acc):
            sp, sa = flow_with_sensitivity(SIGMA, float(y), float(u))
            assert p == pytest.approx(sp, abs=1e-10)
            assert a_ == pytest.approx(sa, abs=1e-10)

    def test_sensitivity_branch_leaves_phi_bit_identical(self):
        # small and large |u| mix 8-substep elements with ~100-substep ones
        rng = np.random.default_rng(5)
        ys = rng.uniform(-1.0, 1.0, 24)
        us = np.concatenate([rng.uniform(-0.3, 0.3, 12),
                             rng.choice([-1.0, 1.0], 12) * rng.uniform(2.0, 6.0, 12)])
        phi, _ = flow_sensitivity_array(SIGMA, ys, us)
        assert np.array_equal(flow_map_array(SIGMA, ys, us), phi)

    # (phi, acc) of both sensitivity kernels over a fixed (y, u) grid, whose
    # bytes the two agree on: S7's sigma, and a sigma that changes sign
    @pytest.mark.parametrize("params,expected", [
        ({"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0},
         "25e8d6563a78baee8e9f1b01e8e0f48559bee39ae6e1f38e696cd277640ec8d2"),
        ({"low": -0.4, "high": 1.6, "rate": 0.9, "center": 0.2},
         "cce7ef8d893092508d685d50fe1890a98e5e7e51464c6346d71d31d814da174a"),
    ])
    def test_sensitivity_kernels_keep_their_bytes(self, params, expected):
        sigma = make_diffusion_field("logistic-slope", params)
        ys, us = (a.ravel() for a in np.meshgrid(
            np.linspace(-3.0, 3.0, 13), [-3.2, -1.1, -0.4, -0.05, 0.0, 0.05, 0.3, 1.7, 3.2]))
        phi, acc = flow_sensitivity_array(sigma, ys, us)
        assert hashlib.sha256(phi.tobytes() + acc.tobytes()).hexdigest() == expected
        phi, acc = np.array([flow_with_sensitivity(sigma, y, u)
                             for y, u in zip(ys.tolist(), us.tolist())]).T
        assert hashlib.sha256(phi.tobytes() + acc.tobytes()).hexdigest() == expected

    @pytest.mark.parametrize("sigma", [
        SIGMA, make_diffusion_field("arctan-diffusion",
                                    {"amplitude": 0.2, "curvature": 0.3, "center": 0.1})])
    def test_batch_order_does_not_change_results(self, sigma):
        # substep counts 8 (u = 0 and |u| <= 0.4), 9, 25, 50 and 100, with ties
        us = np.array([0.0, 0.0, 0.3, -0.4, 0.45, 1.23, -1.23, 1.23, 2.5,
                       -5.0, 5.0, -0.0, 4.99, 0.41])
        ys = np.linspace(-1.5, 1.5, us.size)
        perm = np.random.default_rng(7).permutation(us.size)
        for kernel in (flow_map_array, flow_sensitivity_array):
            whole = np.asarray(kernel(sigma, ys, us))
            shuffled = np.asarray(kernel(sigma, ys[perm], us[perm]))
            assert shuffled.tobytes() == whole[..., perm].tobytes()
            for i in range(us.size):
                one = np.asarray(kernel(sigma, ys[i:i + 1], us[i:i + 1]))
                assert one.tobytes() == whole[..., i:i + 1].tobytes()


class TestOdeTerminals:
    def test_matches_scalar_solver(self):
        cells = 256
        paths = draw_paths(TRIPLET, 8, 31, None)
        packed = pack_paths(paths, cells)
        x_term, y_term = ode_terminals(A_FIELD, packed, 0.2)
        for p, xt, yt in zip(paths, x_term, y_term):
            sol = solve_random_ode(A_FIELD, p, 0.2, 1.0 / cells)
            assert xt == pytest.approx(sol.terminal_x, abs=1e-7)
            assert yt == pytest.approx(sol.terminal_y, abs=1e-7)

    def test_matches_scalar_solver_with_brownian(self):
        cells = 128
        paths = draw_paths(TRIPLET_BROWN, 6, 32, cells)
        packed = pack_paths(paths, cells)
        x_term, _ = ode_terminals(A_FIELD, packed, -0.1)
        for p, xt in zip(paths, x_term):
            sol = solve_random_ode(A_FIELD, p, -0.1, 1.0 / cells)
            assert xt == pytest.approx(sol.terminal_x, abs=1e-6)

    def test_no_jump_paths_bitwise_identical(self):
        quiet = LevyTriplet(drift=0.3, jumps=FiniteAtomic(((1.0, 0.0),)))
        paths = draw_paths(quiet, 5, 33, None)
        packed = pack_paths(paths, 64)
        x_term, _ = ode_terminals(A_FIELD, packed, 0.0)
        assert np.all(x_term == x_term[0])

    def test_chunking_invariance(self):
        cells = 128
        paths = draw_paths(TRIPLET, 12, 34, None)
        full, _ = ode_terminals(A_FIELD, pack_paths(paths, cells), 0.2)
        first, _ = ode_terminals(A_FIELD, pack_paths(paths[:5], cells), 0.2)
        second, _ = ode_terminals(A_FIELD, pack_paths(paths[5:], cells), 0.2)
        assert np.array_equal(full, np.concatenate([first, second]))


class TestMarcusTerminals:
    def test_matches_scalar_solver(self):
        cells = 256
        paths = draw_paths(TRIPLET, 8, 41, None)
        packed = pack_paths(paths, cells)
        got = marcus_terminals(A_FIELD, SIGMA, packed, 0.1)
        for p, xt in zip(paths, got):
            traj = marcus_solve(A_FIELD, SIGMA, p, 0.1, 1.0 / cells)
            assert xt == pytest.approx(traj.terminal, abs=2e-4)

    def test_matches_scalar_solver_with_brownian(self):
        cells = 128
        paths = draw_paths(TRIPLET_BROWN, 6, 42, cells)
        packed = pack_paths(paths, cells)
        got = marcus_terminals(A_FIELD, SIGMA, packed, 0.1)
        for p, xt in zip(paths, got):
            traj = marcus_solve(A_FIELD, SIGMA, p, 0.1, 1.0 / cells)
            assert xt == pytest.approx(traj.terminal, abs=2e-4)

    def test_unit_sigma_matches_ode_engine(self):
        ones = make_diffusion_field("constant", {"level": 1.0})
        cells = 128
        paths = draw_paths(TRIPLET, 6, 43, None)
        packed = pack_paths(paths, cells)
        marc = marcus_terminals(A_FIELD, ones, packed, 0.2)
        ode, _ = ode_terminals(A_FIELD, packed, 0.2)
        assert np.max(np.abs(marc - ode)) < 1e-4


def test_diverging_flow_raises_no_numpy_warning():
    sigma = make_diffusion_field("arctan-diffusion",
                                 {"amplitude": 1.0, "curvature": 1.0, "center": 0.0})
    ys = np.linspace(-1.0, 1.0, 9)
    us = np.full(9, 5.0) * np.where(ys < 0.0, -1.0, 1.0)
    # jumps of 0.8 at rate 2 carry many paths past the flow's pole
    big = LevyTriplet(drift=0.15, jumps=FiniteAtomic(((0.8, 2.0),)), brownian_variance=0.3)
    packed = pack_paths(draw_paths(big, 64, 53, 32), 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = flow_map_array(sigma, ys, us)
        flow_sensitivity_array(sigma, ys, us)
        doss = doss_terminals(A_FIELD, sigma, packed, 0.2)
    assert not np.all(np.isfinite(phi))
    assert 0 < np.count_nonzero(~np.isfinite(doss)) < doss.size


def test_huge_jump_size_is_not_run_and_comes_out_nan():
    # a 1e300 size once wrapped its substep count and flowed 0.3 to -7.0e281;
    # the exact flow is 1.6e300. The other elements keep their bits
    ys, us = np.array([0.3, 0.3, -0.2]), np.array([1e300, 0.4, -0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = flow_map_array(SIGMA, ys, us)
        sens = flow_sensitivity_array(SIGMA, ys, us)
    assert np.isnan(phi[0]) and np.isnan(sens[0][0]) and np.isnan(sens[1][0])
    assert phi[1:].tobytes() == flow_map_array(SIGMA, ys[1:], us[1:]).tobytes()
    assert sens[1][1:].tobytes() == flow_sensitivity_array(SIGMA, ys[1:], us[1:])[1].tobytes()


def test_non_finite_jump_size_gives_non_finite_flow_without_a_warning():
    us = np.array([np.inf, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(flow_map_array(SIGMA, np.zeros(3), us)).any()
        for u in us.tolist():
            with pytest.raises(FlowDivergence):
                jump_flow_phi(SIGMA, 0.0, u)


class TestDossTerminals:
    def test_matches_scalar_solver(self):
        cells = 64
        paths = draw_paths(TRIPLET_BROWN, 4, 51, cells)
        packed = pack_paths(paths, cells)
        scalar = [doss_sussman_solve(A_FIELD, SIGMA, p, 0.1, 1.0 / cells) for p in paths]
        # the closed-form flow, and the jump-flow kernel for a sigma without one
        for sigma in (SIGMA, dataclasses.replace(SIGMA, flow=None)):
            got = doss_terminals(A_FIELD, sigma, packed, 0.1)
            assert got.tolist() == pytest.approx(scalar, abs=1e-6)

    @pytest.mark.parametrize("name,params", [
        ("logistic-slope", {"low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0}),
        ("logistic-slope", {"low": 0.8, "high": 1.6, "rate": 0.0, "center": 0.0}),
        ("logistic-slope", {"low": 0.0, "high": 1.6, "rate": 0.9, "center": 0.0}),
        ("logistic-slope", {"low": 1.6, "high": 0.0, "rate": 0.9, "center": 0.0}),
        ("logistic-slope", {"low": -0.8, "high": -1.6, "rate": 0.9, "center": 0.0}),
        ("arctan-diffusion", {"amplitude": 0.2, "curvature": 0.3, "center": 0.1}),
        ("constant", {"level": 0.7}),
        ("linear", {"slope": 0.5}),
        ("affine", {"slope": -0.4, "intercept": 1.0}),
    ])
    def test_closed_form_sigma_never_runs_the_flow_kernel(self, monkeypatch, name, params):
        # the kernel's cost grows with |Z_t| at every stage; a slow path back
        # into it would show only as a timeout
        def kernel(*args, **kwargs):
            raise AssertionError("the Doss engine ran the jump-flow kernel")

        sigma = make_diffusion_field(name, params)
        packed = pack_paths(draw_paths(TRIPLET_BROWN, 16, 54, 32), 32)
        monkeypatch.setattr(batch_mod, "_flow_array", kernel)
        assert np.isfinite(doss_terminals(A_FIELD, sigma, packed, 0.1)).all()
        # a sigma without a closed form takes the kernel
        with pytest.raises(AssertionError, match="jump-flow kernel"):
            doss_terminals(A_FIELD, dataclasses.replace(sigma, flow=None), packed, 0.1)

    def test_matches_marcus_engine(self):
        cells = 128
        paths = draw_paths(TRIPLET_BROWN, 64, 52, cells)
        packed = pack_paths(paths, cells)
        doss = doss_terminals(A_FIELD, SIGMA, packed, 0.1)
        marc = marcus_terminals(A_FIELD, SIGMA, packed, 0.1)
        assert np.max(np.abs(doss - marc)) < 5e-3


class TestSweep:
    CELLS = 4
    # cells of width 0.25: 0.25 sits on an edge, 1.0 on the horizon; the
    # first and last paths have no jumps, the last one past the flat arrays
    JUMPS = [[], [0.1, 0.2, 0.25, 0.9], [0.3, 0.31, 0.32, 1.0], [0.6], []]
    # each path takes n_jumps + CELLS steps: 4, 8, 8, 5, 4; round s runs the
    # paths with more than s steps, sorted largest first
    ORDER = [1, 2, 3, 0, 4]
    WIDTHS = [5, 5, 5, 5, 3, 2, 2, 2]

    def paths(self, brownian):
        triplet = TRIPLET_BROWN if brownian else TRIPLET
        cells = self.CELLS if brownian else None
        return [dataclasses.replace(p, jump_times=np.array(t),
                                    jump_sizes=np.linspace(0.4, -0.3, len(t)))
                for p, t in zip(draw_paths(triplet, len(self.JUMPS), 61, cells),
                                self.JUMPS)]

    def test_each_path_walks_its_own_jumps_then_cell_edges(self):
        paths = self.paths(False)
        order, rounds = _sweep(pack_paths(paths, self.CELLS))
        # copies: the sweep reuses its arrays from round to round
        # one block: every round's rows start at 0
        steps = [(hi, k.copy(), tau.copy(), dt.copy(), jumped.copy(), sizes.copy())
                 for _, hi, k, tau, dt, jumped, sizes in rounds]
        assert order.tolist() == self.ORDER
        assert [m for m, *_ in steps] == self.WIDTHS
        # path 1 (sorted row 0): its jump at 0.25 comes before cell 0's edge
        # step, which then has length 0
        walk = [(int(k[0]), float(tau[0]), bool(jumped[0])) for _, k, tau, _, jumped, _ in steps]
        assert walk == [(0, 0.0, True), (0, 0.1, True), (0, 0.2, True), (0, 0.25, False),
                        (1, 0.25, False), (2, 0.5, False), (3, 0.75, True), (3, 0.9, False)]
        assert steps[2][5][0] == paths[1].jump_sizes[2]
        assert steps[3][3][0] == 0.0
        # every path takes each of its jumps once and one edge step per cell
        assert sum(int(jumped.sum()) for *_, jumped, _ in steps) == sum(map(len, self.JUMPS))
        assert sorted(np.concatenate([np.flatnonzero(~jumped) for *_, jumped, _ in steps]
                                     ).tolist()) == sorted(list(range(5)) * self.CELLS)
        # path 2 reaches the horizon by its jump, so its last edge step is 0
        m, k, _, dt, jumped, _ = steps[-1]
        assert (int(k[1]), float(dt[1]), bool(jumped[1])) == (3, 0.0, False)

    @pytest.mark.parametrize("brownian", [False, True])
    def test_whole_batch_equals_one_path_at_a_time(self, brownian):
        paths = self.paths(brownian)
        engines = [lambda p: ode_terminals(A_FIELD, p, 0.2),
                   lambda p: marcus_terminals(A_FIELD, SIGMA, p, 0.1),
                   lambda p: doss_terminals(A_FIELD, SIGMA, p, 0.1)]
        for engine in engines:
            whole = np.asarray(engine(pack_paths(paths, self.CELLS)))
            alone = [np.asarray(engine(pack_paths([p], self.CELLS))) for p in paths]
            assert whole.tobytes() == np.concatenate(alone, axis=-1).tobytes()


@st.composite
def jump_layouts(draw):
    """(cells, jump times per path): times on cell edges and at the horizon
    come up often, and so do paths without jumps."""
    cells = draw(st.integers(1, 4))
    edge = st.sampled_from(np.linspace(0.0, 1.0, cells + 1)[1:].tolist())
    time = st.one_of(edge, st.floats(0.0, 1.0, exclude_min=True))
    n = draw(st.integers(1, 5))
    return cells, [sorted(set(draw(st.lists(time, max_size=4)))) for _ in range(n)]


ENGINES = {
    "ode": lambda p: ode_terminals(A_FIELD, p, 0.2),
    "marcus": lambda p: marcus_terminals(A_FIELD, SIGMA, p, 0.1),
    "doss": lambda p: doss_terminals(A_FIELD, SIGMA, p, 0.1),
}


@pytest.mark.parametrize("brownian", [False, True])
@settings(max_examples=15, deadline=None)
@given(layout=jump_layouts(), size=st.floats(0.05, 0.5))
@example(layout=(2, [[], []]), size=0.3)
@example(layout=(4, [[0.25, 0.5, 1.0], [], [0.1, 0.75], [1.0]]), size=0.3)
def test_sweep_blocks_equal_one_path_at_a_time(brownian, layout, size):
    # the whole batch, each path alone, and the batch swept at a width of two
    # rows (the plain ODE engine cuts it into blocks; the Doss and Marcus
    # engines sweep whole batches) all give the same bytes
    cells, times = layout
    triplet = TRIPLET_BROWN if brownian else TRIPLET
    law = path_law(triplet, 1.0, 0.1, brownian_cells=cells if brownian else None)
    paths = [dataclasses.replace(law.path(RngStream(83, i).generator()),
                                 jump_times=np.array(t),
                                 jump_sizes=size * np.cos(np.arange(1.0, len(t) + 1.0)))
             for i, t in enumerate(times)]
    for name, engine in ENGINES.items():
        whole = np.asarray(engine(pack_paths(paths, cells))).tobytes()
        alone = np.concatenate([np.asarray(engine(pack_paths([p], cells))) for p in paths],
                               axis=-1).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batch_mod, "SWEEP_WIDTH", 2)
            narrow = np.asarray(engine(pack_paths(paths, cells))).tobytes()
        assert whole == alone == narrow, name


def _first_jump_cells(packed):
    """ode_terminals' start cells: each path's first jump cell, n_cells
    without a jump."""
    k0 = np.full(packed.n_paths, packed.n_cells)
    has = np.diff(packed.offsets) > 0
    k0[has] = np.searchsorted(packed.edges[1:], packed.flat_times[packed.offsets[:-1][has]])
    return k0


def assert_round_contract(packed, k0, width):
    """Each round's `sizes` are full width, the decoded size of the row's next
    jump where it jumps and +0.0 elsewhere, and `jr += sizes` keeps the bits
    of the boolean-indexed `jr[jumped] += size_table[keys[jp[jumped]]]`, with
    each row's jump index counted independently of the sweep."""
    order, rounds = _sweep(packed, k0, width)
    sizes_of = packed.flat_sizes if packed.size_table is None else \
        packed.size_table[packed.flat_sizes]
    taken = np.zeros(packed.n_paths, dtype=np.int64)
    jr, want = np.zeros(packed.n_paths), np.zeros(packed.n_paths)
    for lo, hi, _, _, _, jumped, sizes in rounds:
        assert sizes.shape == jumped.shape == (hi - lo,)
        assert not np.signbit(sizes[~jumped]).any() and not sizes[~jumped].any()
        index = packed.offsets[order[lo:hi]] + taken[lo:hi]
        assert sizes[jumped].tobytes() == sizes_of[index[jumped]].tobytes()
        jr[lo:hi] += sizes
        w = want[lo:hi]
        w[jumped] += sizes_of[index[jumped]]
        taken[lo:hi] += jumped
        assert jr.tobytes() == want.tobytes()
    assert (taken == np.diff(packed.offsets)[order]).all()


TABLE = np.array([0.4, -0.3, 1e-300, -2.5])


@settings(max_examples=60, deadline=None)
@given(layout=jump_layouts(), data=st.data(), coded=st.booleans(),
       first_jump=st.booleans())
# no jumps at all: the flat arrays are empty
@example(layout=(2, [[], [], []]), data=None, coded=True, first_jump=False)
# at width 1 the last block is the jump-free last path, whose jump pointer is
# the end of the flat arrays
@example(layout=(2, [[0.3, 0.5, 1.0], [0.5], []]), data=None, coded=True, first_jump=True)
def test_full_width_sizes_keep_the_boolean_index_sums(layout, data, coded, first_jump):
    cells, times = layout
    n_jumps = sum(map(len, times))
    if data is None:
        codes = np.arange(n_jumps) % TABLE.size
        floats, width = TABLE[codes], 1
    else:
        codes = np.array(data.draw(st.lists(st.integers(0, TABLE.size - 1),
                                            min_size=n_jumps, max_size=n_jumps)), dtype=int)
        floats = np.array(data.draw(st.lists(st.floats(-2.0, 2.0).filter(bool),
                                             min_size=n_jumps, max_size=n_jumps)), dtype=float)
        width = data.draw(st.integers(1, len(times)))
    sizes = TABLE[codes] if coded else floats
    ends = np.cumsum([len(t) for t in times])
    paths = [dataclasses.replace(PLAIN, jump_times=np.array(t, dtype=float),
                                 jump_sizes=sizes[end - len(t):end])
             for t, end in zip(times, ends)]
    packed = pack_paths(paths, cells)
    if coded:
        packed = dataclasses.replace(packed, flat_sizes=codes.astype(np.uint8),
                                     size_table=TABLE)
    assert_round_contract(packed, _first_jump_cells(packed) if first_jump else 0, width)


@pytest.mark.parametrize("triplet", [
    TRIPLET, LevyTriplet(0.2, DensityForm(intensity=lambda z: abs(z) ** -1.5))])
@pytest.mark.parametrize("width", [1, 3, None])
def test_drawn_laws_keep_the_boolean_index_sums(triplet, width):
    # an atom-coded law (uint8 codes) and a density law (float64 keys), drawn
    # into flat arrays by the range sampler, with jump-free paths among them
    packed = path_law(triplet, 1.0, 0.3).packed(29, 0, 40, 4)
    assert (packed.size_table is None) == isinstance(triplet.jumps, DensityForm)
    assert (np.diff(packed.offsets) == 0).any() and packed.offsets[-1] > 0
    for k0 in (0, _first_jump_cells(packed)):
        assert_round_contract(packed, k0, width)


def _full_sums_rk4(f, t, y, h):
    """The RK4 step written out with `0.5 * h` formed at each use."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _full_sums_terminals(packed, x0, rhs):
    """Reference random-ODE sweep that hands every right-hand side all four
    driver parts, zeros included: drift * t at each stage and 0.0 for a
    missing Brownian part."""
    order, rounds = _sweep(packed)
    y = np.full(packed.n_paths, float(x0))
    jrun = np.zeros(packed.n_paths)
    drift, edges, brown = packed.drift_rate, packed.edges, packed.brown_edges
    h = packed.horizon / packed.n_cells
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, k, tau, dt, jumped, sizes in rounds:
            jr = jrun[lo:hi]
            if brown is not None:
                b0, slope = _brownian(brown, order[lo:hi], k, h)
                t0 = edges.take(k)

            def f(t, u):
                br = 0.0 if brown is None else b0 + slope * (t - t0)
                return rhs(u, drift * t, jr, br)

            y[lo:hi] = _full_sums_rk4(f, tau, y[lo:hi], dt)
            jr += sizes
    return _unsorted(y, order)


def _full_sums_ode(a, packed, x0):
    y = _full_sums_terminals(packed, x0, lambda u, dz, jr, b: a.value(u + dz + jr + b))
    return y + packed.z_terminal, y


def _full_sums_doss(a, sigma, packed, x0):
    """The Doss-Sussmann engine on the full sums, with the flow the engine
    takes for a catalogue sigma: its closed form."""
    def b(u, dz, jr, br):
        phi, slope = sigma.flow(u, dz + jr + br)
        return a.value(phi) / slope

    return sigma.flow(_full_sums_terminals(packed, x0, b), packed.z_terminal)[0]


ZERO_PART_FIELDS = {
    "linear+1": make_scalar_field("linear", {"slope": 1.0}),
    "linear-1": make_scalar_field("linear", {"slope": -1.0}),
    "logistic-0": make_scalar_field("logistic-slope", {"low": 0.0, "center": 0.0}),
    "s3-default": make_scalar_field("logistic-slope", {"low": 0.0, "high": 1.0,
                                                       "rate": 1.0, "center": 12.0}),
}


@settings(max_examples=60, deadline=None)
@given(layout=jump_layouts(), size=st.floats(0.05, 0.5), brownian=st.booleans(),
       drift=st.sampled_from([0.0, -0.0, 0.3]), x0=st.sampled_from([0.0, -0.0, 0.2]),
       field=st.sampled_from(sorted(ZERO_PART_FIELDS)))
# a signed zero in x0 and the drift, on paths without jumps
@example(layout=(2, [[], [0.5]]), size=0.3, brownian=False, drift=-0.0, x0=-0.0,
         field="linear+1")
@example(layout=(2, [[], [1.0]]), size=0.3, brownian=True, drift=0.0, x0=-0.0,
         field="linear-1")
def test_zero_driver_parts_dropped_bit_for_bit(layout, size, brownian, drift, x0, field):
    # the engines leave out drift * t when drift == 0.0 and the Brownian part
    # when there is none; the sums they skip are exact identities because the
    # running jump sum starts at +0.0 and so is never -0.0
    cells, times = layout
    triplet = TRIPLET_BROWN if brownian else TRIPLET
    law = path_law(triplet, 1.0, 0.1, brownian_cells=cells if brownian else None)
    paths = [dataclasses.replace(law.path(RngStream(91, i).generator()), drift_rate=drift,
                                 jump_times=np.array(t),
                                 jump_sizes=size * np.cos(np.arange(1.0, len(t) + 1.0)))
             for i, t in enumerate(times)]
    packed = pack_paths(paths, cells)
    a = ZERO_PART_FIELDS[field]
    got, want = ode_terminals(a, packed, x0), _full_sums_ode(a, packed, x0)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = doss_terminals(a, SIGMA, packed, x0), _full_sums_doss(a, SIGMA, packed, x0)
    assert got.tobytes() == want.tobytes()


def cell_zero_ode_terminals(a, packed, x0):
    """ode_terminals as it was before the jump-free prefix was shared: every
    path walks its own steps from x0 at cell 0, the batch sorted once by jumps
    plus cells, largest first, and swept whole. A test-local copy of that
    sweep that shares no code with the engine but `rk4_step`, the way
    `drawn_one_by_one` serves the range sampler's tests."""
    n, cells, edges, brown = packed.n_paths, packed.n_cells, packed.edges, packed.brown_edges
    times, drift = packed.flat_times, packed.drift_rate
    sizes = packed.flat_sizes if packed.size_table is None else \
        packed.size_table[packed.flat_sizes]
    steps = np.diff(packed.offsets) + cells
    order = np.argsort(-steps, kind="stable")
    steps = steps[order]
    jptr, jend = packed.offsets[:-1][order], packed.offsets[1:][order]
    cell, tau = np.zeros(n, dtype=np.int64), np.zeros(n)
    y, jrun = np.full(n, float(x0)), np.zeros(n)
    h = packed.horizon / cells
    timed = drift != 0.0 or brown is not None
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(int(steps.max(initial=0))):
            m = int(np.count_nonzero(steps > s))
            jp, k, now, jr = jptr[:m], cell[:m], tau[:m], jrun[:m]
            right = edges[k + 1]
            nt = times[np.minimum(jp, times.size - 1)] if times.size else right
            jumped = (jp < jend[:m]) & (nt <= right)
            target = np.where(jumped, nt, right)
            if brown is not None:
                b0 = brown[order[:m], k]
                slope, t0 = (brown[order[:m], k + 1] - b0) / h, edges[k]

            def f(t, u):
                x = u + jr if drift == 0.0 else (u + drift * t) + jr
                if brown is not None:
                    x = x + (b0 + slope * (t - t0))
                return a.value(x)

            y[:m] = rk4_step(f, now if timed else None, y[:m], target - now)
            jr[jumped] += sizes[jp[jumped]]
            now[:] = target
            jp += jumped
            k += ~jumped
        out = np.empty(n)
        out[order] = y
        return out + packed.z_terminal, out


class TestJumpFreePrefix:
    """The plain engine solves the jump-free skeleton once and starts each
    path at its first jump's cell; its bytes are those of the cell-0 sweep."""

    CELLS = 4
    # cells of width 0.25: first jumps in cell 0, on the edges 0.25 and 0.5,
    # inside cell 2, on the horizon, and no jump at all
    JUMPS = [[], [0.1, 0.6], [0.25, 0.3], [0.5], [0.6, 0.7, 0.75], [1.0], [0.2], []]

    def packed(self, jumps, drift=0.15, brownian=False):
        triplet = TRIPLET_BROWN if brownian else TRIPLET
        law = path_law(triplet, 1.0, 0.1, brownian_cells=self.CELLS if brownian else None)
        paths = [dataclasses.replace(law.path(RngStream(97, i).generator()), drift_rate=drift,
                                     jump_times=np.array(t, dtype=float),
                                     jump_sizes=0.4 * np.cos(np.arange(1.0, len(t) + 1.0)))
                 for i, t in enumerate(jumps)]
        return pack_paths(paths, self.CELLS)

    @staticmethod
    def assert_same_bytes(a, packed, x0):
        got, want = ode_terminals(a, packed, x0), cell_zero_ode_terminals(a, packed, x0)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    @pytest.mark.parametrize("x0", [0.0, -0.0, 0.2])
    @pytest.mark.parametrize("drift", [0.0, 0.15])
    @pytest.mark.parametrize("field", ["linear+1", "linear-1", "s3-default"])
    def test_equals_the_cell_zero_sweep(self, x0, drift, field):
        self.assert_same_bytes(ZERO_PART_FIELDS[field], self.packed(self.JUMPS, drift), x0)

    @pytest.mark.parametrize("drift", [0.0, 0.15])
    def test_batch_without_jumps(self, drift):
        packed = self.packed([[], [], []], drift)
        assert packed.flat_times.size == 0
        self.assert_same_bytes(A_FIELD, packed, 0.2)

    def test_overflowing_skeleton_raises_no_warning(self):
        steep = make_scalar_field("arctan-diffusion", {"amplitude": 1.0, "curvature": 1.0})
        packed = self.packed(self.JUMPS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, _ = ode_terminals(steep, packed, 1e308)
        assert not np.isfinite(x).any()
        self.assert_same_bytes(steep, packed, 1e308)

    def test_brownian_batch_unchanged(self):
        self.assert_same_bytes(A_FIELD, self.packed(self.JUMPS, brownian=True), 0.2)

    def test_more_paths_than_a_block(self):
        law = path_law(TRIPLET, 1.0, 0.1)
        packed = law.packed(59, 0, batch_mod.SWEEP_WIDTH + 900, 8)
        assert (np.diff(packed.offsets) == 0).any()
        self.assert_same_bytes(A_FIELD, packed, 0.2)

    def test_blocks_are_cut_from_the_remaining_step_order(self, monkeypatch):
        # remaining steps 5, 2, 5, 2, 0 (4 cells; the first jumps lie in cells
        # 0, 3, 0 and 3): sorted, blocks of two rows take 5 + 2 + 0 rounds,
        # and blocks in replica order would take 5 + 5 + 0
        rounds = []
        real = batch_mod._rounds

        def counting(packed, lo, live, *starts):
            rounds.append((lo, live.tolist()))
            return real(packed, lo, live, *starts)

        monkeypatch.setattr(batch_mod, "_rounds", counting)
        monkeypatch.setattr(batch_mod, "SWEEP_WIDTH", 2)
        packed = self.packed([[0.1], [0.9], [0.2], [1.0], []])
        self.assert_same_bytes(A_FIELD, packed, 0.2)
        assert rounds == [(0, [2] * 5), (2, [2] * 2), (4, [])]


# numpy's Python-level wrappers for ndarray.clip, .all and .any, patched to
# raise while the engines run. ndarray caches each wrapper on its first call,
# so the patch goes in before any, in a fresh process, and is checked to bite.
_WRAPPER_GUARD = r"""
import numpy as np
import numpy._core._methods as methods

armed = []


def guard(name):
    real = getattr(methods, name)

    def call(*args, **kwargs):
        if armed:
            raise AssertionError(f"numpy._core._methods.{name} ran in an engine")
        return real(*args, **kwargs)

    setattr(methods, name, call)


for name in ("_clip", "_all", "_any"):
    guard(name)
armed.append(True)
for probe in (lambda: np.ones(2, dtype=bool).all(), lambda: np.ones(2, dtype=bool).any(),
              lambda: np.ones(2).clip(0.0, 1.0)):
    try:
        probe()
    except AssertionError:
        continue
    raise SystemExit("the guard does not bite")
armed.clear()

from levyreg.batch import doss_terminals, marcus_terminals, ode_terminals
from levyreg.config import parse_config, plan_run
from levyreg.fields import make_diffusion_field, make_scalar_field


def small(text):
    plan = plan_run(parse_config(text))
    config, ((law, _), *_) = plan.config, plan.laws
    return (config, make_scalar_field(config.drift_field.name, config.drift_field.params),
            law.packed(config.seed, 0, 12, config.cells))


s3, a3, s3_paths = small("scenario = S3\n[measure.family]\nlevels = 6\n")
s7, a7, s7_paths = small("scenario = S7\ncells = 16\n")
closed = make_diffusion_field(s7.diffusion_field.name, s7.diffusion_field.params)
# a sigma that changes sign has no closed flow: Doss runs the jump-flow kernel
kernel = make_diffusion_field("logistic-slope",
                              {"low": -0.4, "high": 1.6, "rate": 0.9, "center": 0.0})
armed.append(True)
out = [ode_terminals(a3, s3_paths, s3.x0)[0],
       doss_terminals(a7, closed, s7_paths, s7.x0),
       doss_terminals(a7, kernel, s7_paths, s7.x0),
       marcus_terminals(a7, closed, s7_paths, s7.x0)]
armed.clear()
print([bool(np.isfinite(x).all()) for x in out])
"""


def test_engines_call_no_python_level_numpy_wrapper():
    env = {**os.environ, "PYTHONPATH": str(Path(batch_mod.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _WRAPPER_GUARD], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[True, True, True, True]"
