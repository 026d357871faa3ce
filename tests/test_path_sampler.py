import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyreg import path_sampler
from levyreg.batch import pack_paths
from levyreg.config import parse_config, plan_run
from levyreg.levy_spec import DensityForm, FiniteAtomic, LevyTriplet, dyadic_family
from levyreg.path_sampler import (
    LevyPath,
    NotEnoughMarkedJumps,
    PackedPaths,
    _dedupe_packed,
    _dedupe_times,
    decompose_first_jump,
    path_law,
    resample_first_jump_time,
    sample_many,
    sample_path,
    shift_jump_time,
)
from levyreg.quadrature import shell_integral
from levyreg import rng
from levyreg.rng import (
    TAG_BAND,
    PhiloxDraws,
    RngStream,
    StreamGenerator,
    philox_words,
    stream_draws,
)

# chi-square 0.999 quantile, 9 degrees of freedom
CHI2_CRIT_999_DF9 = 27.877


def simple_path(jumps, horizon=1.0, drift=0.0):
    times = np.array([t for t, _ in jumps])
    sizes = np.array([s for _, s in jumps])
    return LevyPath(horizon, drift, times, sizes)


class TestLevyPath:
    def test_pure_drift_terminal(self):
        triplet = LevyTriplet(drift=0.3, jumps=FiniteAtomic(((1.0, 0.0),)))
        path = sample_path(triplet, 1.0, 0.5, gen=RngStream(1, 0).generator())
        assert path.n_jumps == 0
        assert path.terminal == pytest.approx(0.3)

    def test_cadlag_evaluation(self):
        path = simple_path([(0.5, 1.0)], drift=1.0)
        assert path.value(0.5) == pytest.approx(1.5)
        assert path.left_value(0.5) == pytest.approx(0.5)
        assert path.value(0.25) == pytest.approx(0.25)
        assert path.value(0.0) == 0.0

    def test_rejects_bad_jumps(self):
        with pytest.raises(ValueError):
            simple_path([(0.5, 1.0), (0.5, 2.0)])
        with pytest.raises(ValueError):
            simple_path([(0.0, 1.0)])
        with pytest.raises(ValueError):
            simple_path([(1.5, 1.0)])
        with pytest.raises(ValueError):
            simple_path([(0.5, 0.0)])


class TestSamplePath:
    @staticmethod
    def _jump_counts(triplet, n, seed):
        """Jump counts of replicas 0..n-1, the ones sample_path draws from
        RngStream(seed, i): the first 1000 are checked against it."""
        counts = np.diff(path_law(triplet, 1.0, 0.5).packed(seed, 0, n, 1).offsets)
        assert np.array_equal(counts[:1000], [
            sample_path(triplet, 1.0, 0.5, gen=RngStream(seed, i).generator()).n_jumps
            for i in range(1000)])
        return counts

    def test_poisson_jump_count_mean(self):
        triplet = LevyTriplet(drift=0.0, jumps=FiniteAtomic(((1.0, 2.0),)))
        n = 100_000
        counts = self._jump_counts(triplet, n, 7)
        assert counts.mean() == pytest.approx(2.0, abs=3.0 * math.sqrt(2.0 / n))

    def test_poisson_chi_square_gof(self):
        lam = 2.0
        triplet = LevyTriplet(drift=0.0, jumps=FiniteAtomic(((1.0, lam),)))
        n = 100_000
        counts = self._jump_counts(triplet, n, 123)
        # bins 0..8 plus a >=9 tail: 10 cells, 9 degrees of freedom
        observed = np.array([(counts == k).sum() for k in range(9)]
                            + [(counts >= 9).sum()], dtype=float)
        pmf = np.array([math.exp(-lam) * lam ** k / math.factorial(k)
                        for k in range(9)])
        expected = np.concatenate([pmf, [1.0 - pmf.sum()]]) * n
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_999_DF9

    def test_dyadic_family_terminal_mean(self):
        triplet = LevyTriplet(drift=0.0, jumps=dyadic_family(12))
        n = 10_000
        # one law for every replica: sample_path(...) is path_law(...).path(gen)
        law = path_law(triplet, 1.0, 2.0 ** -12)
        terms = np.array([law.path(RngStream(3, i).generator()).terminal
                          for i in range(n)])
        # analytic mean of the compound Poisson: sum 2^n * 2^-n = 12, var = sum 2^-n
        var = sum(2.0 ** -n for n in range(1, 13))
        assert terms.mean() == pytest.approx(12.0, abs=4.0 * math.sqrt(var / n))

    def test_uniform_jump_times(self):
        triplet = LevyTriplet(drift=0.0, jumps=FiniteAtomic(((1.0, 5.0),)))
        times = np.concatenate([
            sample_path(triplet, 2.0, 0.5, gen=RngStream(9, i).generator()).jump_times
            for i in range(4000)])
        assert times.min() > 0.0 and times.max() <= 2.0
        assert times.mean() == pytest.approx(1.0, abs=4.0 * (2.0 / math.sqrt(12.0)) / math.sqrt(len(times)))

    def test_compensation_shifts_drift(self):
        spec = FiniteAtomic(((0.5, 2.0), (2.0, 1.0)))
        triplet = LevyTriplet(drift=1.0, jumps=spec)
        p0 = sample_path(triplet, 1.0, 0.1, compensate=False,
                         gen=RngStream(1, 1).generator())
        p1 = sample_path(triplet, 1.0, 0.1, compensate=True,
                         gen=RngStream(1, 1).generator())
        # only sizes in (0.1, 1] compensate: 0.5 * 2.0 = 1.0
        assert p0.drift_rate == pytest.approx(1.0)
        assert p1.drift_rate == pytest.approx(0.0)
        assert np.array_equal(p0.jump_times, p1.jump_times)

    def test_density_spec_sizes_land_above_trunc(self):
        spec = DensityForm(intensity=lambda z: abs(z) ** -1.5, abs_max=1.0)
        triplet = LevyTriplet(drift=0.0, jumps=spec)
        path = sample_path(triplet, 1.0, 0.05, gen=RngStream(21, 0).generator())
        assert path.n_jumps > 0
        assert np.all(np.abs(path.jump_sizes) >= 0.05)
        assert np.all(np.abs(path.jump_sizes) <= 1.0)

    def test_density_spec_size_law(self):
        # one-sided |z|^-3/2 above 0.25: P(size > s) = (s^-1/2 - 1) / (0.25^-1/2 - 1)
        spec = DensityForm(intensity=lambda z: abs(z) ** -1.5, abs_max=1.0,
                           two_sided=False)
        law = path_law(LevyTriplet(drift=0.0, jumps=spec), 1.0, 0.25)
        sizes = np.concatenate([
            law.path(RngStream(4, i).generator()).jump_sizes for i in range(3000)])
        frac = (sizes > 0.5).mean()
        expected = (0.5 ** -0.5 - 1.0) / (0.25 ** -0.5 - 1.0)
        assert frac == pytest.approx(expected, abs=4.0 / math.sqrt(len(sizes)))

    def test_brownian_skeleton_variance(self):
        triplet = LevyTriplet(drift=0.0, jumps=FiniteAtomic(((1.0, 0.0),)),
                              brownian_variance=0.5)
        terms = np.array([
            sample_path(triplet, 1.0, 0.5, gen=RngStream(2, i).generator(),
                        brownian_cells=256).terminal
            for i in range(20_000)])
        assert terms.mean() == pytest.approx(0.0, abs=4.0 * math.sqrt(0.5 / 20_000))
        assert terms.var() == pytest.approx(0.5, rel=0.06)

    def test_brownian_part_needs_cells(self):
        triplet = LevyTriplet(drift=0.0, jumps=FiniteAtomic(((1.0, 0.0),)),
                              brownian_variance=0.5)
        with pytest.raises(ValueError, match="brownian_cells"):
            path_law(triplet, 1.0, 0.5)

    def test_deterministic_across_runs_and_threads(self):
        triplet = LevyTriplet(drift=0.1, jumps=FiniteAtomic(((1.0, 3.0), (-0.5, 2.0))))

        def draw(i):
            p = sample_path(triplet, 1.0, 0.1, gen=RngStream(42, i).generator())
            return p.jump_times.tobytes() + p.jump_sizes.tobytes()

        serial = [draw(i) for i in range(64)]
        serial_again = [draw(i) for i in reversed(range(64))][::-1]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(draw, range(64)))
        assert serial == serial_again == threaded

    def test_infinite_rate_above_trunc_rejected(self):
        spec = DensityForm(intensity=lambda z: abs(z) ** -3.5, abs_max=1.0)
        triplet = LevyTriplet(drift=0.0, jumps=spec)
        with pytest.raises(ValueError):
            sample_path(triplet, 1.0, -0.5, gen=RngStream(0, 0).generator())


class TestDecomposition:
    def test_direct_selection(self):
        path = simple_path([(0.2, 0.05), (0.5, 0.05), (0.7, 1.0)])
        d = decompose_first_jump(path, 0.01, 0.1)
        assert d.T == 0.2
        assert d.T2 == 0.5
        assert d.marked_size == 0.05
        assert d.residual.n_jumps == 2

    def test_not_enough_marked(self):
        path = simple_path([(0.2, 0.05), (0.5, 0.05), (0.7, 1.0)])
        with pytest.raises(NotEnoughMarkedJumps):
            decompose_first_jump(path, 0.5, 2.0)

    def test_residual_removes_exactly_one(self):
        triplet = LevyTriplet(drift=0.0, jumps=FiniteAtomic(((0.3, 6.0),)))
        for i in range(20):
            path = sample_path(triplet, 1.0, 0.1, gen=RngStream(8, i).generator())
            if path.n_jumps < 2:
                continue
            d = decompose_first_jump(path, 0.1, 0.5)
            assert d.residual.n_jumps == path.n_jumps - 1
            assert d.T not in d.residual.jump_times

    def test_resample_uniform_mean(self):
        path = simple_path([(0.2, 0.05), (0.5, 0.05), (0.7, 1.0)])
        d = decompose_first_jump(path, 0.01, 0.1)
        n = 100_000
        gen = RngStream(77, 0).generator()
        draws = np.array([
            resample_first_jump_time(d, gen=gen).jump_times.min() for i in range(n)])
        ratio = draws / d.T2
        assert ratio.mean() == pytest.approx(0.5, abs=3.0 * math.sqrt(1.0 / 12.0 / n))

    def test_resample_preserves_sizes_and_terminal(self):
        triplet = LevyTriplet(drift=0.2, jumps=FiniteAtomic(((0.3, 6.0), (1.5, 1.0))))
        done = 0
        for i in range(40):
            path = sample_path(triplet, 1.0, 0.1, gen=RngStream(5, i).generator())
            try:
                d = decompose_first_jump(path, 0.1, 0.5)
            except NotEnoughMarkedJumps:
                continue
            new = resample_first_jump_time(d, gen=RngStream(5, i).child(1).generator())
            assert new.n_jumps == path.n_jumps
            assert sorted(new.jump_sizes) == sorted(path.jump_sizes)
            if d.T2 < path.horizon:
                assert new.terminal == pytest.approx(path.terminal, abs=1e-12)
            done += 1
        assert done >= 20

    def test_roundtrip_preserves_conditioning_data(self):
        triplet = LevyTriplet(drift=0.0, jumps=FiniteAtomic(((0.3, 8.0),)))
        for i in range(20):
            path = sample_path(triplet, 1.0, 0.1, gen=RngStream(13, i).generator())
            if path.n_jumps < 2:
                continue
            d = decompose_first_jump(path, 0.1, 0.5)
            new = resample_first_jump_time(d, gen=RngStream(13, i).child(2).generator())
            d2 = decompose_first_jump(new, 0.1, 0.5)
            assert d2.T2 == d.T2
            assert d2.marked_size == d.marked_size
            assert np.array_equal(d2.residual.jump_times, d.residual.jump_times)
            assert np.array_equal(d2.residual.jump_sizes, d.residual.jump_sizes)


class TestShiftJumpTime:
    def test_zero_shift_identity(self):
        path = simple_path([(0.2, 0.05), (0.5, 0.05)])
        shifted = shift_jump_time(path, 0, 0.0)
        assert np.array_equal(shifted.jump_times, path.jump_times)

    def test_locality_and_terminal_invariance(self):
        path = simple_path([(0.2, 1.0), (0.6, -0.5)], drift=0.3)
        shifted = shift_jump_time(path, 0, 0.1)
        for s in (0.05, 0.15):
            assert shifted.value(s) == pytest.approx(path.value(s))
        assert shifted.terminal == pytest.approx(path.terminal)

    def test_ordering_violation_rejected(self):
        path = simple_path([(0.2, 1.0), (0.6, -0.5)])
        with pytest.raises(ValueError):
            shift_jump_time(path, 0, 0.5)
        with pytest.raises(ValueError):
            shift_jump_time(path, 0, -0.2)
        with pytest.raises(ValueError):
            shift_jump_time(path, 1, 0.5)


PACKED_FIELDS = ("horizon", "drift_rate", "n_cells", "edges", "flat_times", "flat_sizes",
                 "offsets", "brown_edges", "z_terminal")


def code_dtype(table_size):
    """The smallest unsigned type whose values index a table this long."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if np.iinfo(t).max >= table_size - 1)


def decoded_sizes(packed):
    """packed.flat_sizes as float sizes, after checking how they are stored:
    float64 without a size table, else codes of the smallest unsigned type."""
    table = packed.size_table
    if table is None:
        assert packed.flat_sizes.dtype == np.float64
        return packed.flat_sizes
    assert table.dtype == np.float64
    assert packed.flat_sizes.dtype == code_dtype(table.size)
    return table[packed.flat_sizes]


def assert_packed_equal(got, want):
    """Every field equal, jump sizes compared decoded."""
    for name in PACKED_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if name == "flat_sizes":
            a, b = decoded_sizes(got), decoded_sizes(want)
        if isinstance(b, np.ndarray):
            assert a is not None and np.array_equal(a, b), name
            assert a.dtype == b.dtype, name
        else:
            assert a == b, name


class TestStreamGenerator:
    IDS = list(range(1000)) + [(1 << 48) + i for i in range(500)] + \
        [(1 << 64) - 1 - i for i in range(500)]

    @staticmethod
    def draws(gen):
        # odd int32 counts leave a cached 32-bit half behind in the bit generator
        return [gen.integers(0, 1000, size=3, dtype=np.int32), gen.poisson(2.0),
                gen.poisson(8190.0), gen.random(3), gen.uniform(-1.0, 2.5, size=4),
                gen.normal(0.3, 1.7, size=5), gen.integers(0, 1 << 40, size=3),
                gen.integers(-5, 5, dtype=np.int32)]

    def test_rekeyed_draws_match_fresh_generators(self):
        streams = StreamGenerator(303)
        for sid in self.IDS:
            got = self.draws(streams.at(sid))
            want = self.draws(RngStream(303, sid).generator())
            for a, b in zip(got, want):
                assert np.array_equal(a, b), sid

    def test_same_generator_object(self):
        streams = StreamGenerator(1)
        assert streams.at(0) is streams.at(5)

    @pytest.mark.parametrize("sid", [np.int64(3), np.uint64(3), np.uint64((1 << 64) - 1)])
    def test_numpy_integer_ids(self, sid):
        got = StreamGenerator(1).at(sid).random(4)
        assert np.array_equal(got, RngStream(1, int(sid)).generator().random(4))

    def test_scaled_random_is_the_uniform_draw(self):
        # the path draw uses scale * random(), the same double as uniform(0, scale)
        for sid, scale in enumerate((1.0, 0.37, 2.0, 8190.0, 1e-9, 3e5)):
            a = RngStream(9, sid).generator().uniform(0.0, scale, size=257)
            b = scale * RngStream(9, sid).generator().random(257)
            assert np.array_equal(a, b)


class TestPhiloxWords:
    """The array Philox against numpy's own: if numpy ever changes its
    stream, the range sampler's array draws stop matching `draw`."""

    @pytest.mark.parametrize("seed", [0, -12345, (1 << 64) - 1])
    @pytest.mark.parametrize("k", [1, 11, 16])
    def test_matches_numpy_philox(self, seed, k):
        ids = np.array([0, 1, 5 * TAG_BAND, (1 << 64) - 1], dtype=np.uint64)
        got = philox_words(seed, ids, k)
        assert got.shape == (ids.size, k) and got.dtype == np.uint64
        for row, sid in zip(got, ids):
            key = np.array([seed & ((1 << 64) - 1), sid], dtype=np.uint64)
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(k)), sid


_BOUNDS = st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 5.0)).map(
    lambda b: (b[0], b[0] + b[1]))
# high - low of 1 draws no word; 2^31 + 1 has a Lemire threshold of 2^31 - 1,
# so about half its draws are rejected; 2^32 - 1 is the widest range Lemire's
# method maps, and 2^32 takes a 32-bit half as it is
_SPANS = (1, 2, 3, 10, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32)
_DRAW_CALLS = st.lists(st.one_of(
    st.tuples(st.just("uniform"), _BOUNDS),
    st.tuples(st.just("sized"), _BOUNDS, st.integers(0, 6)),
    st.tuples(st.just("unit"), st.integers(0, 6)),
    st.tuples(st.just("integers"), st.integers(-10, 10), st.sampled_from(_SPANS))),
    max_size=40)


def _draw(gen, call):
    kind, *args = call
    if kind == "uniform":
        return gen.uniform(*args[0])
    if kind == "sized":
        return gen.uniform(*args[0], args[1])
    if kind == "unit":
        return gen.uniform(size=args[0])
    return gen.integers(args[0], args[0] + args[1])


class TestPhiloxDraws:
    """The uniform and integers draws S6 reads off Philox words, against
    numpy's Generator on the same stream, call for call."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), stream_id=st.integers(0, (1 << 64) - 1),
           calls=_DRAW_CALLS)
    def test_matches_numpy_generator(self, seed, stream_id, calls):
        gen = RngStream(seed, stream_id).generator()
        # four words at first, so most call lists outrun them and recompute the row
        words = philox_words(seed, np.array([stream_id], dtype=np.uint64), 4)[0]
        draws = PhiloxDraws(seed, stream_id, words)
        for call in calls + [("uniform", (0.0, 1.0))]:
            want, got = _draw(gen, call), _draw(draws, call)
            if call[0] in ("sized", "unit"):
                assert got.dtype == np.float64 and np.array_equal(got, want), call
            else:
                assert type(got) is (int if call[0] == "integers" else float)
                assert got == want, call

    # 64 draws at 2^31 + 1 all pass the threshold with probability about
    # 2^-64, so rejection runs; the uniform after them checks the word count
    def test_lemire_rejection_keeps_the_stream_in_step(self):
        gen = RngStream(17, 3).generator()
        (draws,) = stream_draws(17, [3])
        for _ in range(64):
            assert draws.integers(5, 5 + 2 ** 31 + 1) == gen.integers(5, 5 + 2 ** 31 + 1)
        assert draws.uniform() == gen.uniform()

    @pytest.mark.parametrize("high", [0, -1, 2 ** 32 + 1, 2 ** 40])
    def test_ranges_it_cannot_read_raise(self, high):
        (draws,) = stream_draws(17, [3])
        with pytest.raises(ValueError, match="ranges of 1 to 2\\^32 values"):
            draws.integers(0, high)

    def test_stream_draws_computes_a_block_of_streams_at_once(self, monkeypatch):
        calls = []
        real = rng.philox_words

        def spy(seed, ids, k):
            calls.append(ids.tolist())
            return real(seed, ids, k)

        monkeypatch.setattr(rng, "DRAWS_BLOCK", 3)
        monkeypatch.setattr(rng, "philox_words", spy)
        ids = [0, 1, 2, 5 * TAG_BAND, 7, (1 << 64) - 1, 9]
        drawn = [(d.stream_id, d.uniform(size=5)) for d in stream_draws(8, iter(ids))]
        assert calls == [ids[:3], ids[3:6], ids[6:]]
        for sid, u in drawn:
            assert np.array_equal(u, RngStream(8, sid).generator().uniform(size=5))


class _CoarseUniforms:
    """Generator stand-in whose uniforms take only 16 values, so jump times tie."""

    def __init__(self, gen):
        self.gen = gen

    def poisson(self, lam):
        return self.gen.poisson(lam)

    def random(self, size):
        return (np.floor(self.gen.random(size) * 16.0) + 0.5) / 16.0


class _CoarseStreams(StreamGenerator):
    def at(self, stream_id):
        return _CoarseUniforms(super().at(stream_id))


def _many_atoms(n):
    """n atoms of rate 0.05, sizes +-0.01, +-0.02, ... alternating in sign."""
    return FiniteAtomic(tuple((0.01 * (i + 1) * (-1) ** i, 0.05) for i in range(n)))


class TestSamplePacked:
    CASES = {
        "atoms": (LevyTriplet(0.3, FiniteAtomic(((1.0, 2.0), (-0.4, 1.0)))), 1.0, 0.3, 40),
        # a size table of 301 entries: uint16 codes
        "many-atoms": (LevyTriplet(0.1, _many_atoms(300)), 1.0, 0.001, 20),
        "sparse": (LevyTriplet(0.1, FiniteAtomic(((0.5, 0.4),))), 1.0, 0.3, 30),
        "dyadic": (LevyTriplet(0.0, dyadic_family(12)), 1.0, 2.0 ** -12, 5),
        "density": (LevyTriplet(0.2, DensityForm(intensity=lambda z: abs(z) ** -1.5)),
                    1.0, 0.05, 20),
        "horizon": (LevyTriplet(-0.2, FiniteAtomic(((0.25, 3.0),))), 2.5, 0.1, 20),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("offset", [0, 977])
    def test_equals_packed_sample_many(self, case, offset):
        triplet, horizon, trunc, n = self.CASES[case]
        law = path_law(triplet, horizon, trunc)
        got = law.packed(17, offset, n, 64)
        want = pack_paths(sample_many(law, n, 17, stream_offset=offset), 64)
        assert_packed_equal(got, want)
        assert (got.size_table is None) == isinstance(triplet.jumps, DensityForm)

    # the table repeats the last atom: 255 atoms fill uint8's 256 codes
    @pytest.mark.parametrize("atoms,dtype", [(255, np.uint8), (256, np.uint16)])
    def test_codes_take_the_smallest_unsigned_type(self, atoms, dtype):
        law = path_law(LevyTriplet(0.0, _many_atoms(atoms)), 1.0, 0.001)
        got = law.packed(5, 0, 10, 8)
        assert got.size_table.size == atoms + 1
        assert got.flat_sizes.dtype == law.key_dtype == dtype
        assert law.bytes_per_jump == 8 + np.dtype(dtype).itemsize
        assert_packed_equal(got, pack_paths(sample_many(law, 10, 5), 8))

    def test_density_sizes_stay_float(self):
        triplet, horizon, trunc, n = self.CASES["density"]
        law = path_law(triplet, horizon, trunc)
        got = law.packed(3, 0, n, 8)
        assert law.size_table is None and got.size_table is None
        assert got.flat_sizes.dtype == law.key_dtype == np.float64
        assert law.bytes_per_jump == 16

    def test_atomic_path_without_jumps(self):
        # a zero-jump draw has no codes, and they must still index the table
        triplet, horizon, trunc, _ = self.CASES["sparse"]
        law = path_law(triplet, horizon, trunc)
        paths = [law.path(RngStream(17, i).generator()) for i in range(30)]
        empty = [p for p in paths if p.n_jumps == 0]
        assert empty and len(empty) < len(paths)
        for p in empty:
            assert p.jump_sizes.dtype == np.float64 and p.terminal == 0.1 * horizon

    def test_dyadic_mean_jumps(self):
        triplet, horizon, trunc, n = self.CASES["dyadic"]
        got = path_law(triplet, horizon, trunc).packed(17, 0, n, 8)
        assert got.offsets[-1] == pytest.approx(8190 * n, rel=0.05)

    def test_zero_jump_replicas(self):
        triplet, horizon, trunc, n = self.CASES["sparse"]
        got = path_law(triplet, horizon, trunc).packed(17, 0, n, 16)
        counts = np.diff(got.offsets)
        assert (counts == 0).sum() >= 5 and counts.sum() > 0
        assert np.all(got.z_terminal[counts == 0] == 0.1 * horizon)

    def test_no_rate_packs_empty(self):
        triplet = LevyTriplet(0.4, FiniteAtomic(((1.0, 0.0),)))
        law = path_law(triplet, 1.0, 0.5)
        got = law.packed(2, 0, 3, 8)
        want = pack_paths(sample_many(law, 3, 2), 8)
        assert_packed_equal(got, want)
        assert got.flat_times.size == 0

    @pytest.mark.parametrize("bcells", [32, 100])
    def test_brownian(self, bcells):
        triplet = LevyTriplet(0.1, FiniteAtomic(((0.35, 2.0),)), brownian_variance=0.3)
        law = path_law(triplet, 1.0, 0.1, brownian_cells=bcells)
        got = law.packed(5, 3, 12, 32)
        want = pack_paths(sample_many(law, 12, 5, stream_offset=3), 32)
        assert_packed_equal(got, want)

    def test_compensated_drift(self):
        triplet, horizon, trunc, n = self.CASES["atoms"]
        law = path_law(triplet, horizon, trunc, compensate=True)
        got = law.packed(4, 0, n, 16)
        want = pack_paths(sample_many(law, n, 4), 16)
        assert_packed_equal(got, want)
        assert got.drift_rate == pytest.approx(0.3 - 2.0 + 0.4)

    COMPENSATED_DENSITIES = {
        "two-sided": DensityForm(
            intensity=lambda z: abs(z) ** -1.5 * (1.0 if z > 0.0 else 0.5),
            abs_min=0.01, abs_max=3.0),
        "one-sided": DensityForm(intensity=lambda z: z ** -1.9, abs_max=0.7,
                                 two_sided=False),
    }

    @pytest.mark.parametrize("kind", sorted(COMPENSATED_DENSITIES))
    def test_compensated_drift_density(self, kind):
        spec = self.COMPENSATED_DENSITIES[kind]
        triplet, trunc = LevyTriplet(0.2, spec), 0.05
        law = path_law(triplet, 1.0, trunc, compensate=True)
        got = law.packed(4, 0, 5, 16)
        want = pack_paths(sample_many(law, 5, 4), 16)
        assert_packed_equal(got, want)
        # the integral of z over {trunc < |z| <= 1}, shell by shell and sign by sign
        lo, hi = max(trunc, spec.abs_min), min(1.0, spec.abs_max)
        compensator = shell_integral(lambda z: z * spec.intensity(z), lo, hi)
        if spec.two_sided:
            compensator += shell_integral(lambda z: -z * spec.intensity(-z), lo, hi)
        assert got.drift_rate == 0.2 - compensator

    def test_tied_jump_times(self, monkeypatch):
        monkeypatch.setattr(path_sampler, "StreamGenerator", _CoarseStreams)
        triplet = LevyTriplet(0.0, FiniteAtomic(((0.5, 30.0),)))
        law = path_law(triplet, 1.0, 0.1)
        got = law.packed(8, 0, 10, 16)
        want = pack_paths(sample_many(law, 10, 8), 16)
        assert_packed_equal(got, want)
        # the coarse uniforms gave ties, and they were nudged apart
        assert np.unique(got.flat_times).size > np.unique(
            np.round(got.flat_times, 12)).size
        for lo, hi in zip(got.offsets[:-1], got.offsets[1:]):
            assert np.all(np.diff(got.flat_times[lo:hi]) > 0.0)

    def test_flat_arrays_grow_past_capacity(self, monkeypatch):
        # grown arrays keep their dtype (assert_same_bytes compares dtypes):
        # uint8 or uint16 codes, float64 sizes. Rows drawn per replica grow
        # them inside a block's loop over those rows (many-atoms and density
        # are above POISSON_PTRS_MEAN, brownian has a Brownian part), array
        # rows after it; at 2 mean jumps a few rows outrun their words, so
        # one block does both.
        laws = {case: path_law(*self.CASES[case][:3])
                for case in ("atoms", "many-atoms", "density")}
        laws["brownian"] = range_law("brownian", 3.0)
        laws["outrun"] = range_law("atoms", 2.0)
        monkeypatch.setattr(path_sampler, "_jump_capacity", lambda mean: 1)
        for law in laws.values():
            assert_same_bytes(law.packed(6, 0, 300, 16), drawn_one_by_one(law, 6, 0, 300, 16))

    def test_rejects_empty_range(self):
        triplet, horizon, trunc, _ = self.CASES["atoms"]
        with pytest.raises(ValueError):
            path_law(triplet, horizon, trunc).packed(1, 0, 0, 16)


def drawn_one_by_one(law, seed, offset, n, cells):
    """law.packed's reference: `draw` on each replica's own stream, the
    draws joined by np.concatenate, then _dedupe_packed."""
    streams = StreamGenerator(seed)
    draws = [law.draw(streams.at(offset + i)) for i in range(n)]
    times = np.concatenate([t for t, _, _ in draws])
    keys = [k for _, k, _ in draws]
    offsets = np.cumsum([0] + [k.size for k in keys])
    _dedupe_packed(times, offsets)
    decode = path_sampler.size_decoder(law.size_table)
    z_terminal = law.drift * law.horizon + np.array([decode(k).sum() for k in keys])
    edges = np.linspace(0.0, law.horizon, cells + 1)
    brown = None
    if law.brownian_grid is not None:
        brown = np.array([np.interp(edges, *b) for _, _, b in draws])
        z_terminal = z_terminal + brown[:, -1]
    return PackedPaths(horizon=law.horizon, drift_rate=law.drift, n_cells=cells,
                       edges=edges, flat_times=times,
                       flat_sizes=np.concatenate(keys).astype(law.key_dtype),
                       offsets=offsets, brown_edges=brown, z_terminal=z_terminal,
                       size_table=law.size_table)


def assert_same_bytes(got, want):
    for name in PACKED_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


RANGE_LAWS = {
    "atoms": (LevyTriplet(0.3, FiniteAtomic(((1.0, 2.0), (-0.4, 1.0), (0.37, 0.5)))), {}),
    "density": (LevyTriplet(0.2, DensityForm(intensity=lambda z: abs(z) ** -1.5)), {}),
    "brownian": (LevyTriplet(0.1, FiniteAtomic(((0.35, 2.0),)), brownian_variance=0.3),
                 {"brownian_cells": 8}),
}


def range_law(kind, mean):
    """A RANGE_LAWS law on [0, 2.5] with exactly `mean` jumps per path."""
    triplet, kwargs = RANGE_LAWS[kind]
    return replace(path_law(triplet, 2.5, 0.1, **kwargs), mean_jumps=mean)


class TestRangeSampler:
    """law.packed against the per-replica draw, byte for byte: array rows
    below POISSON_PTRS_MEAN mean jumps, rows that outrun their words, rows
    at or above the cutoff, Brownian laws (drawn per replica, also at rate
    0), the edges of PACK_BLOCK, and the jump sums of numpy's pairwise
    .sum()."""

    @settings(max_examples=6, deadline=None)
    @given(kind=st.sampled_from(sorted(RANGE_LAWS)),
           mean=st.floats(1e-9, 12.0),
           n=st.sampled_from([1, 4095, 4096, 4097]),
           offset=st.integers((1 << 48) - 5000, (1 << 48) + 5000),
           seed=st.integers(-(1 << 63), (1 << 64) - 1))
    @example(kind="atoms", mean=1e-9, n=4097, offset=0, seed=303)
    @example(kind="density", mean=9.999, n=4096, offset=(1 << 48) - 4096, seed=-7)
    @example(kind="atoms", mean=10.0, n=4095, offset=977, seed=2)
    @example(kind="density", mean=10.001, n=1, offset=(1 << 48) - 1, seed=5)
    @example(kind="brownian", mean=2.0, n=4097, offset=(1 << 48) - 2048, seed=11)
    def test_equals_per_replica_draw(self, kind, mean, n, offset, seed):
        law = range_law(kind, mean)
        assert_same_bytes(law.packed(seed, offset, n, 16),
                          drawn_one_by_one(law, seed, offset, n, 16))

    # numpy sums fewer than 8 terms left to right and 8 or more pairwise, with
    # a recursive split past 128
    @pytest.mark.parametrize("mean,lengths", [(8.0, (7, 8, 9)), (128.5, (128, 129))])
    @pytest.mark.parametrize("kind", ["atoms", "density"])
    def test_pairwise_sum_edges(self, kind, mean, lengths):
        law = range_law(kind, mean)
        got = law.packed(404, 0, 300, 16)
        assert set(lengths) <= set(np.diff(got.offsets).tolist())
        assert_same_bytes(got, drawn_one_by_one(law, 404, 0, 300, 16))

    def test_sums_have_the_bits_of_numpy_sum(self):
        # the array rows of one jump count are summed by .sum(axis=1) of a
        # C-contiguous (rows, count) array: each row must get the bits of its
        # own .sum(), for blocks of one row up to PACK_BLOCK and the counts a
        # row below POISSON_PTRS_MEAN holds once it has words enough: a path
        # of 9.999 mean jumps has 40 or more with probability 7e-13.
        # Magnitudes from 1e-8 to 1e8 show the order of the additions in the
        # last bits.
        rng = np.random.default_rng(21)
        left_to_right_differs = False
        for c in range(1, 41):
            for m in (1, 8, 4095, 4096):
                terms = rng.standard_normal((m, c)) * 10.0 ** rng.uniform(-8, 8, (m, c))
                if m > 1:
                    terms[-1] = -0.0
                want = np.array([row.sum() for row in terms])
                assert terms.sum(axis=1).tobytes() == want.tobytes(), (c, m)
                if c >= 8:
                    in_order = np.array([sum(row.tolist(), 0.0) for row in terms])
                    left_to_right_differs |= bool(np.any(in_order != want))
        # numpy sums 8 or more terms pairwise, not left to right
        assert left_to_right_differs

    def test_rate_zero_brownian_law(self):
        # no jumps, but every path still draws its Brownian normals
        triplet = LevyTriplet(0.1, FiniteAtomic(((0.35, 0.0),)), brownian_variance=0.3)
        law = path_law(triplet, 2.5, 0.1, brownian_cells=8)
        assert law.sizes is None and law.mean_jumps == 0.0
        got = law.packed(7, 5, 20, 16)
        assert got.flat_times.size == 0 and np.all(got.brown_edges[:, -1] != 0.0)
        assert_same_bytes(got, drawn_one_by_one(law, 7, 5, 20, 16))

    # a law below POISSON_PTRS_MEAN without a Brownian part never reaches
    # `draw`: a row that outruns its words is computed again with more
    @pytest.mark.parametrize("n", [4095, 4096, 4097])
    @pytest.mark.parametrize("kind,mean", [("atoms", 2.0), ("density", 9.999)])
    def test_light_laws_build_no_stream_generator(self, monkeypatch, kind, mean, n):
        law = range_law(kind, mean)
        want = drawn_one_by_one(law, 31, (1 << 48) - 4096, n, 16)

        def refuse(seed):
            raise AssertionError("a light law built a StreamGenerator")

        monkeypatch.setattr(path_sampler, "StreamGenerator", refuse)
        got = law.packed(31, (1 << 48) - 4096, n, 16)
        assert np.diff(got.offsets).max() > (path_sampler._row_words(mean) - 1) // 3
        assert_same_bytes(got, want)

    # a row of 3.0 mean jumps holds 24 words: 7 jumps and a spare word
    @pytest.mark.parametrize("mean", [2.0, 3.0])
    def test_rows_that_outrun_their_words(self, mean):
        law = range_law("atoms", mean)
        got = law.packed(9, 0, 3000, 16)
        counts = np.diff(got.offsets)
        row_jumps = (path_sampler._row_words(mean) - 1) // 3
        assert np.sum(counts > row_jumps) >= 10 and np.any(counts == row_jumps + 1)
        assert_same_bytes(got, drawn_one_by_one(law, 9, 0, 3000, 16))


def test_dedupe_packed_matches_per_path_across_blocks():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 7, size=60)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    paths = [np.sort(np.round(rng.uniform(0.0, 1.0, k), 1)) + 0.05 for k in counts]
    flat = np.concatenate(paths)
    assert any(np.any(np.diff(p) == 0.0) for p in paths)
    want = np.concatenate([_dedupe_times(p.copy()) for p in paths])
    _dedupe_packed(flat, offsets, block=5)
    assert np.array_equal(flat, want)


class TestIndexedSearch:
    @staticmethod
    def _search(rates):
        atoms = tuple((0.5 + i, r) for i, r in enumerate(rates))
        return path_sampler._size_sampler(FiniteAtomic(atoms), 0.5)[0]

    # [1e5, 10]: total * scale rounds below 4096, so both values share the
    # crowded bucket 4095 (a guide built by cum / total * 4096 puts the total
    # in bucket 4096 and crowds no bucket); [1e12, 1e-12, 1e-12]: cumsum
    # repeats its first value; 5e-324 twice: 4096 / total overflows, and the
    # clamped scale puts both values in bucket 0
    @given(st.lists(st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e),
                    min_size=1, max_size=300))
    @example([1e5, 10.0])
    @example([1e12, 1e-12, 1e-12])
    @example([5e-324, 5e-324])
    @settings(max_examples=200, deadline=None)
    def test_keys_equal_searchsorted(self, rates):
        search = self._search(rates)
        cum = np.cumsum(rates)
        total = cum[-1]
        xs = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
                             [0.0, total, total * (1.0 - 2.0 ** -53)]])
        xs = xs[xs <= total]     # total * u for u in [0, 1) never passes total
        dtype = np.min_scalar_type(len(rates))
        want = cum.searchsorted(xs, side="right")
        keys = search.keys(xs)
        assert keys.dtype == dtype and np.array_equal(keys, want)
        # _array_jumps draws the keys of a jump count's rows as one 2-D array
        keys = search.keys(np.stack([xs, xs[::-1]]))
        assert np.array_equal(keys, np.stack([want, want[::-1]]))
        u = np.array([0.0, 1.0 - 2.0 ** -53])
        keys = search(u)
        assert keys.dtype == dtype
        assert np.array_equal(keys, cum.searchsorted(total * u, side="right"))

    def test_s3_default_law_takes_one_pass(self):
        # S3 defaults to the 12-level dyadic family: cumulative rates 2, 6,
        # ..., 8190, one to a bucket, so no key falls back to searchsorted
        (law, _), = plan_run(parse_config("scenario = S3\n")).laws
        assert law.sizes.crowded is None and law.sizes.ext.size == 13
