"""The key table behind parse_config / serialize_config / plan_document's
overrides, the scenario defaults, and the checks that make `validate` agree
with `run`."""

import functools
import json
import math
import re
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import levyreg.scenarios as scenarios_mod
from levyreg import path_sampler
from levyreg.cli import main as cli_main
from levyreg.config import (
    _JUMP_MARGINS,
    _SCALARS,
    GLOBAL_FIELDS,
    SCENARIO_DEFAULTS,
    ConfigError,
    FieldChoice,
    MeasureChoice,
    PlanError,
    ScenarioConfig,
    fields_read,
    parse_config,
    plan_document,
    plan_run,
    serialize_config,
    with_scenario_defaults,
)
from levyreg.fields import canonical_params
from levyreg.path_sampler import MAX_RESULT_BYTES, RESULT_BYTES_PER_ROW, S5_BYTES_PER_REPLICA
from levyreg.scenarios import run_scenario


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _maybe(strategy):
    return st.none() | strategy


# One strategy per field the key table sets. The ranges keep every generated
# law far inside the jump budget, every replica count above the sample floor
# and below 2^48 replica streams, every marked window nonempty and every
# lattice tube narrower than half its spacing, alone or with the scenario
# defaults (mark_low 0.1, mark_high 0.5, spacing at least 2^-12, halfwidth
# 1e-9), so each config must parse, except an S5 config of more samples.csv
# rows (up to 10^8) than the result budget holds, an S2 or S6 config whose
# horizon leaves no room for its jumps, and an S2 horizon or an S5 marked
# window too rare for the draw cap, which must be rejected as such
# (`_expected_rejection`).
_VALUES = {
    "replicas": st.integers(1000, 100_000),
    "seed": st.integers(0, 2 ** 40),
    "threads": st.integers(1, 64),
    "horizon": _floats(0.01, 10.0),
    "x0": _floats(-1e6, 1e6),
    "cells": st.integers(1, 10_000),
    "truncation": _floats(0.01, 2.0),
    "compensate": st.booleans(),
    "repetitions": st.integers(1, 1000),
    "trend_levels": st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
    "drift": _floats(-1e3, 1e3),
    "brownian_variance": _floats(0.0, 5.0),
    "family": st.sampled_from(["dyadic", "sparse"]),
    "levels": st.integers(1, 12),
    "sign": _floats(0.1, 4.0) | _floats(-4.0, -0.1),
    "rate_scale": _floats(1e-3, 10.0),
    "power": _floats(0.05, 2.0),
    "abs_max": _floats(0.05, 5.0),
    "two_sided": st.booleans(),
    "window": _floats(1e-12, 1e3),
    "threshold": _floats(1e-6, 0.999),
    "spacing": _floats(1e-6, 10.0),
    "halfwidth": _floats(1e-12, 1e-7),
    "mark_low": _floats(1e-6, 0.1),
    "mark_high": _floats(0.5, 10.0),
}
_FAMILY_KEYS = ("family", "levels", "sign", "rate_scale")
_DENSITY_KEYS = ("power", "abs_max", "two_sided")
_FIELD_PARAMS = {"constant": ("level",), "linear": ("slope",),
                 "affine": ("slope", "intercept"),
                 "logistic-slope": ("low", "high", "rate", "center"),
                 "arctan-diffusion": ("amplitude", "curvature", "center")}

_atom = st.tuples(_floats(0.01, 3.0) | _floats(-3.0, -0.01), _floats(0.0, 50.0))
_measures = st.one_of(
    st.lists(_atom, min_size=1, max_size=3).map(
        lambda atoms: MeasureChoice(kind="atoms", atoms=tuple(atoms))),
    st.fixed_dictionaries({k: _VALUES[k] for k in _FAMILY_KEYS}).map(
        lambda kw: MeasureChoice(kind="family", **kw)),
    st.fixed_dictionaries({k: _VALUES[k] for k in _DENSITY_KEYS}).map(
        lambda kw: MeasureChoice(kind="density", **kw)))


@st.composite
def _field_choices(draw):
    name = draw(st.sampled_from(sorted(_FIELD_PARAMS)))
    keys = draw(st.lists(st.sampled_from(_FIELD_PARAMS[name]), unique=True))
    params = {k: draw(_floats(-5.0, 5.0)) for k in keys}
    return FieldChoice(name, canonical_params(name, params))


_FIELDS = {"measure": _maybe(_measures), "drift_field": _maybe(_field_choices()),
           "diffusion_field": _maybe(_field_choices()),
           **{key: value if key in GLOBAL_FIELDS else _maybe(value)
              for key, value in _VALUES.items()
              if key not in _FAMILY_KEYS + _DENSITY_KEYS}}


def _atoms_kept(config: ScenarioConfig) -> ScenarioConfig:
    """config with each atom below the run's truncation raised to it: the plan
    refuses an atom that the run would drop."""
    m = config.measure
    if m is None or m.kind != "atoms":
        return config
    cut = with_scenario_defaults(config).truncation
    return replace(config, measure=replace(m, atoms=tuple(
        (math.copysign(max(abs(size), cut), size), rate) for size, rate in m.atoms)))


# a scenario's config sets only fields the scenario reads, and no atom below
# its truncation
_configs = st.sampled_from(sorted(SCENARIO_DEFAULTS)).flatmap(
    lambda scenario: st.builds(
        ScenarioConfig, scenario=st.just(scenario),
        **{key: value for key, value in _FIELDS.items() if key in fields_read(scenario)})
).map(_atoms_kept)


def _expected_rejection(config: ScenarioConfig) -> str | None:
    """What parse_config must reject a generated config for, in the order it
    checks: the result budget, a horizon within the jump margins, then the
    draw cap. The plan checks the atoms the config gives, not the scenario's
    default ones, so it plans the config as generated."""
    resolved = with_scenario_defaults(config)
    s5 = config.scenario == "S5"
    rows = resolved.replicas * (resolved.repetitions if s5 else 1)
    # S5 also holds one repetition's paths within the same budget
    paths = resolved.replicas * S5_BYTES_PER_REPLICA if s5 else 0
    if rows * RESULT_BYTES_PER_ROW + paths > MAX_RESULT_BYTES:
        return "the result budget"
    if resolved.horizon <= 2 * _JUMP_MARGINS.get(config.scenario, 0.0):
        return "no room for its jumps"
    try:
        plan_run(config)
    except PlanError as exc:
        if "draws (probability up to" in str(exc):
            return r"draws \(probability up to"
    return None


class TestKeyTable:
    def test_strategies_cover_every_table_key(self):
        assert set(_VALUES) == {target for _, _, target in _SCALARS.values()} \
            - {"scenario"}

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_configs)
    def test_serialize_round_trips(self, config):
        text = serialize_config(config)
        reason = _expected_rejection(config)
        if reason is not None:
            with pytest.raises(ConfigError, match=reason):
                parse_config(text)
            return
        again = parse_config(text)
        assert again == config
        assert serialize_config(again) == text

    # `levyreg validate` output as the hand-written parser gave it before the
    # key table, for documents written out of order, with comments and other
    # spellings
    @pytest.mark.parametrize("text,expected", [
        ("# every key S3 reads, the family measure and the drift field\n"
         "replicas = 5000\nseed = 13\nthreads = 2\nhorizon = 0.9\nx0 = -0.05\n"
         "cells = 32\ntruncation = 0.01\ncompensate = on\n"
         "trend_levels = 2, 4,\nscenario = S3   # trailing comment\n\n"
         "[diagnostics]\nhalfwidth = 1e-8\n"
         "spacing = 0.0078125\nthreshold = 0.1\nwindow = 1e-4\n"
         "\n[measure.family]\n"
         "rate_scale = 0.8\nsign = -1\nlevels = 7\nkind = sparse\n\n"
         "[drift_field]\ncenter = 2\nname = logistic-slope\nhigh = 1\n\n"
         "[triplet]\nbrownian_variance = 0\ndrift = 0.1\n",
         "scenario = S3\nreplicas = 5000\nseed = 13\nthreads = 2\nhorizon = 0.9\n"
         "x0 = -0.05\ncells = 32\ntruncation = 0.01\ncompensate = true\n"
         "trend_levels = 2,4\n\n"
         "[triplet]\ndrift = 0.1\nbrownian_variance = 0.0\n\n"
         "[measure.family]\nkind = sparse\nlevels = 7\nsign = -1.0\n"
         "rate_scale = 0.8\n\n"
         "[drift_field]\nname = logistic-slope\ncenter = 2.0\nhigh = 1.0\nlow = 0.0\n"
         "rate = 1.0\n\n"
         "[diagnostics]\nwindow = 0.0001\nthreshold = 0.1\nspacing = 0.0078125\n"
         "halfwidth = 1e-08\n"),
        ("scenario = S1\nreplicas = 1000\n[measure.density]\ntwo_sided = false\n"
         "abs_max = 2.5\npower = 0.75\n",
         "scenario = S1\nreplicas = 1000\nseed = 2024\nthreads = 1\nhorizon = 1.0\n\n"
         "[measure.density]\npower = 0.75\nabs_max = 2.5\ntwo_sided = false\n"),
        ("scenario = S7\nhorizon = 2\n[measure.atom.2]\nrate = 0.5\nsize = -0.25\n"
         "[measure.atom.1]\nsize = 1e-1\nrate = 3\n",
         "scenario = S7\nseed = 2024\nthreads = 1\nhorizon = 2.0\n\n"
         "[measure.atom.1]\nsize = 0.1\nrate = 3.0\n[measure.atom.2]\nsize = -0.25\n"
         "rate = 0.5\n")])
    def test_validate_output_is_pinned(self, tmp_path, capsys, text, expected):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected


class TestScenarioDefaults:
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_DEFAULTS))
    def test_minimal_document_validates_and_resolves(self, scenario):
        config = parse_config(f"scenario = {scenario}\n")
        resolved = with_scenario_defaults(config)
        for key, value in SCENARIO_DEFAULTS[scenario].items():
            assert getattr(config, key) is None
            if callable(value):
                assert getattr(resolved, key) is not None
            else:
                assert getattr(resolved, key) == value
        assert with_scenario_defaults(resolved) == resolved

    def test_s3_lattice_follows_the_family_levels(self):
        resolved = with_scenario_defaults(
            parse_config("scenario = S3\n[measure.family]\nlevels = 6\n"))
        assert resolved.truncation == resolved.spacing == 2.0 ** -6
        resolved = with_scenario_defaults(parse_config(
            "scenario = S3\ntruncation = 0.1\n[diagnostics]\nspacing = 0.5\n"))
        assert (resolved.truncation, resolved.spacing) == (0.1, 0.5)
        assert resolved.measure == MeasureChoice(kind="family", levels=12)

    def test_set_keys_are_kept(self):
        config = parse_config("scenario = S7\nreplicas = 2000\nx0 = 0.0\n"
                              "[triplet]\nbrownian_variance = 0.0\n")
        resolved = with_scenario_defaults(config)
        assert (resolved.replicas, resolved.x0, resolved.brownian_variance) == \
            (2000, 0.0, 0.0)
        assert resolved.cells == 128 and resolved.drift == 0.1


# Each document validated with exit 0 and failed only in `run`, most of them
# after sampling (the trend level after the whole main S3 run, the lattice
# tubes after every S3 and S4 replica was solved).
# The rate quadrature cannot reach its tolerance on z^-4 near 0.001: before
# adaptive Simpson had an evaluation budget, validate and run hung on it.
STEEP_DENSITY = "scenario = S1\ntruncation = 0.001\n[measure.density]\npower = 4\n"

REJECTED = [
    ("scenario = S1\n[measure.atom.1]\nsize = 1.0\nrate = 1e12\n", 4, "chunk budget"),
    (STEEP_DENSITY, 4, "evaluations"),
    ("scenario = S3\nreplicas = 1000\ntrend_levels = 4,30\n", 3, "chunk budget"),
    ("scenario = S3\nreplicas = 1000\n[measure.family]\nlevels = 30\n", 4,
     "chunk budget"),
    ("scenario = S4\nhorizon = 1e6\nseed = 3\n", 2, "chunk budget"),
    ("scenario = S5\nreplicas = 1000\nhorizon = 3\ntruncation = 1e-6\n"
     "[measure.density]\npower = 2\n", 6, "chunk budget"),
    ("scenario = S1\n[measure.atom.1]\nsize = 0.0\nrate = 1.0\n", 4,
     "atom sizes must be nonzero"),
    # an atom below truncation validated with exit 0, and the run dropped it:
    # this S1 ran with no jumps at all and reported an atom of mass 1.0. The
    # error names the atom's size line, not its later rate line
    ("scenario = S1\nreplicas = 2000\n[measure.atom.1]\nsize = 0.3\nrate = 2.0\n", 4,
     "atom size = 0.3 is below truncation = 0.5: the run would drop it"),
    ("scenario = S7\ntruncation = 0.5\n[measure.atom.1]\nsize = 1.0\nrate = 2.0\n"
     "[measure.atom.4]\nsize = -0.3\nrate = 1.0\n", 7, "atom size = -0.3 is below"),
    ("scenario = S1\nreplicas = 300\n", 2, "below the 1000 samples"),
    ("scenario = S3\nreplicas = 999\n", 2, "below the 1000 samples"),
    ("scenario = S5\nseed = 1\nreplicas = 200\n", 3, "below the 1000 samples"),
    ("scenario = S7\nreplicas = 999\n", 2, "below the 1000 samples"),
    ("scenario = S5\n[diagnostics]\nmark_low = 0.5\nmark_high = 0.1\n", 4,
     "needs 0 < low <= high"),
    # S2 read a marked window until every accepted window marked every jump
    ("scenario = S2\n[diagnostics]\nmark_high = 0.1\nmark_low = 0.5\n", 3,
     "scenario S2 does not read 'mark_high'"),
    # the marked window [0.1, 0.5] expects 0.01 and 0.008 jumps per path: a
    # replica could exhaust sample_many's draws, and the run aborted
    ("scenario = S5\nreplicas = 1000\nrepetitions = 2\n[measure.atom.1]\nsize = 0.3\n"
     "rate = 0.01\n", 6, "no path with two marked jumps"),
    ("scenario = S5\nhorizon = 0.001\n", 2, "no path with two marked jumps"),
    ("scenario = S4\n[diagnostics]\nhalfwidth = 0.001\n", 3,
     "need 0 < halfwidth < spacing / 2"),
    ("scenario = S3\n[diagnostics]\nspacing = 0.01\nhalfwidth = 0.006\n", 4,
     "need 0 < halfwidth < spacing / 2"),
    # the default halfwidth 1e-9 is not below 2^-40 / 2
    ("scenario = S3\ntruncation = 0.01\n[measure.family]\nlevels = 40\n", 4,
     "need 0 < halfwidth < spacing / 2"),
    # S6 draws its jump times from [0.05, horizon - 0.05]: run failed with
    # `high - low < 0` and no line number
    ("scenario = S6\nhorizon = 0.05\n", 2, "no room for its jumps"),
    ("scenario = S6\nhorizon = 0.1\nreplicas = 3\n", 2, "no room for its jumps"),
    # these three S2 documents validated with exit 0 and never ran: S2 needs a
    # jump in [0.02, horizon - 0.02] (8 of 8 replicas failed), rate 5 past the
    # chunk budget (run failed with no line number), and, while S2 read a
    # marked window, an atom size from [0.25, 0.55) in it (8 of 8 failed)
    ("scenario = S2\nhorizon = 0.04\nreplicas = 8\n", 2, "no room for its jumps"),
    ("scenario = S2\nhorizon = 800001\n", 2, "chunk budget"),
    # validate exited 0, and a run would allocate 8 GB of cell edges
    ("scenario = S3\ncells = 1000000000\n", 2, "cell edges per path"),
    ("scenario = S6\ncells = 8000000\n", 2, "cell edges per path"),
    ("scenario = S2\nreplicas = 8\n[diagnostics]\nmark_low = 0.6\nmark_high = 1.0\n", 4,
     "scenario S2 does not read 'mark_low'"),
    # and these two ran with 6 of 8 replicas failed: a window that held only
    # part of [0.25, 0.55) never marked a config whose atom size it missed, and
    # at horizon 0.05 a draw has its first jump in [0.02, 0.03] and another
    # after it with probability at most 0.0052, so 300 draws may all miss
    ("scenario = S2\nreplicas = 8\n[diagnostics]\nmark_low = 0.5\nmark_high = 1.0\n", 4,
     "scenario S2 does not read 'mark_low'"),
    ("scenario = S2\nhorizon = 0.05\nreplicas = 8\n", 3,
     "no such path in 300 draws"),
    # these three were rejected without a line number; each names the first key
    # line of the offending section (for two measures, the second one)
    ("scenario = S1\n[drift_field]\nlow = 0.0\nhigh = 1.0\n", 3, "needs a 'name' key"),
    ("scenario = S1\n[measure.atom.1]\nsize = 1.0\n", 3, "needs both size and rate"),
    ("scenario = S1\n[measure.atom.1]\nsize = 1.0\nrate = 2.0\n[measure.family]\n"
     "levels = 4\n", 6, "give at most one of"),
    # each key below validated with exit 0, and the run ignored it
    ("scenario = S6\nx0 = 5\ncompensate = true\ntrend_levels = 4\n[triplet]\n"
     "drift = 0.1\n[drift_field]\nname = constant\n[diagnostics]\nwindow = 0.1\n"
     "mark_low = 0.1\n[output]\ndir = results\n", 2, "scenario S6 does not read 'x0'"),
    ("scenario = S2\n[measure.atom.1]\nsize = 0.3\nrate = 8.0\n", 3,
     "scenario S2 does not read"),
    ("scenario = S1\n[output]\ndir = results\n", 3, "unknown key 'dir'"),
    # the run read no value of it
    ("scenario = S3\n[measure.family]\nlevels = 4\nidealized_infinite = no\n", 4,
     "unknown key 'idealized_infinite'"),
    # a refused key comes before the cross-key checks (here S6's horizon)
    ("scenario = S6\nhorizon = 0.05\n[diagnostics]\nwindow = 0.1\nspacing = 0.1\n", 4,
     "scenario S6 does not read 'window'"),
    # these four validated with exit 0, and their samples.csv rows alone would
    # not fit in memory: S5's rows are replicas times repetitions, and the
    # later of the two lines is named
    ("scenario = S1\nreplicas = 1000000000\n", 2, "the result budget"),
    ("scenario = S5\nreplicas = 100000000\nrepetitions = 1000\n", 3, "the result budget"),
    (f"scenario = S6\nreplicas = {2 ** 48}\n", 2, "the result budget"),
    ("scenario = S7\nreplicas = 100000000\n", 2, "the result budget"),
]


class TestValidateAgreesWithRun:
    @pytest.mark.parametrize("text,line,message", REJECTED)
    def test_rejected_with_line(self, text, line, message):
        with pytest.raises(ConfigError, match=f"^line {line}: .*{message}"):
            parse_config(text)

    @pytest.mark.parametrize("text,line,message", REJECTED)
    def test_validate_and_run_exit_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                   text, line, message):
        def must_not_sample(*args, **kwargs):
            raise AssertionError("a rejected config reached the sampler")

        monkeypatch.setattr(path_sampler.PathLaw, "packed", must_not_sample)
        monkeypatch.setattr(scenarios_mod, "sample_many", must_not_sample)
        monkeypatch.setattr(scenarios_mod, "sample_path", must_not_sample)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        for argv in (["validate"], ["run", "--out", str(out)]):
            assert cli_main(argv + ["--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: line {line}: ") and message in err
        assert not out.exists()

    def test_steep_density_exits_within_a_second(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(STEEP_DENSITY)
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            start = time.perf_counter()
            assert cli_main(argv + ["--config", str(cfg)]) == 1
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err.startswith("config error: line 4: ")

    @pytest.mark.parametrize("text", [
        "scenario = S1\nreplicas = 1000\n",
        "scenario = S3\nreplicas = 1000\ntrend_levels = 20\n",
        "scenario = S3\nreplicas = 1000\n[measure.family]\nlevels = 20\n",
        "scenario = S2\nreplicas = 5\n",
        "scenario = S4\nreplicas = 5\n",
        "scenario = S6\nreplicas = 5\n",
        # 8 * (7999999 + 1) bytes of cell edges fill the chunk budget exactly
        "scenario = S6\ncells = 7999999\n"])
    def test_at_the_limits_accepted(self, text):
        assert parse_config(serialize_config(parse_config(text))) == parse_config(text)

    def test_s6_horizon_just_above_the_margins_runs(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S6\nseed = 707\nreplicas = 3\nhorizon = 0.11\n")
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "samples.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("text", [
        "scenario = S3\n[measure.family]\nlevels = 1023\n",
        "scenario = S3\ntrend_levels = 2,1023\n"])
    def test_levels_past_the_float_range_rejected(self, text):
        with pytest.raises(ConfigError, match="value out of range"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "scenario = S5\n",
        "scenario = S5\nreplicas = 1000\nrepetitions = 100\nseed = 606\n",
        "scenario = S5\nseed = 55\nreplicas = 1000\nrepetitions = 3\n",
        # one draw misses with probability e^-0.272 * 1.272, about 0.969
        "scenario = S5\nhorizon = 0.034\nrepetitions = 1\n"])
    def test_s5_marked_windows_within_the_draw_cap_accepted(self, text):
        assert parse_config(serialize_config(parse_config(text))) == parse_config(text)

    def test_override_past_the_draw_cap_rejected(self):
        text = "scenario = S5\nhorizon = 0.034\nrepetitions = 1\n"
        assert plan_document(text, replicas=10_000)[1].config.replicas == 10_000
        with pytest.raises(ConfigError, match="^override the marked window expects"):
            plan_document(text, replicas=100_000)

    @pytest.mark.parametrize("scenario", ["S1", "S3", "S5", "S7"])
    def test_override_below_sample_floor_rejected(self, scenario):
        text = f"scenario = {scenario}\n"
        assert plan_document(text, replicas=1000)[1].config.replicas == 1000
        with pytest.raises(ConfigError, match=r"^override replicas = 999 is below"):
            plan_document(text, replicas=999)


# Every refusal that depends on `replicas`: (the document without its replicas
# line, a replica count it runs with, one it is refused for, the reason).
REPLICA_REFUSALS = [
    ("scenario = S7\n", 1000, 999, "is below the 1000 samples"),
    ("scenario = S6\n", 5, 2 ** 48 + 1, "reuses random streams"),
    ("scenario = S2\nhorizon = 0.119\n", 8, 100, "no such path in 300 draws"),
    ("scenario = S5\nhorizon = 0.034\nrepetitions = 1\n", 1000, 100_000,
     "no path with two marked jumps"),
    ("scenario = S1\n", 1000, 10 ** 8, "the result budget"),
    # REJECTED's four documents past the result budget, by --replicas too
    ("scenario = S1\n", 1000, 10 ** 9, "the result budget"),
    ("scenario = S5\nrepetitions = 1000\n", 1000, 10 ** 8, "the result budget"),
    ("scenario = S6\n", 5, 2 ** 48, "the result budget"),
    ("scenario = S7\n", 1000, 10 ** 8, "the result budget"),
]


class TestOneDoor:
    """plan_run is the one door to a run: a document, `run --replicas` and
    run_scenario on a replaced config are refused for the same reason, and
    none of them reaches the sampler."""

    @pytest.mark.parametrize("head,ok,bad,message", REPLICA_REFUSALS)
    def test_refused_alike_three_ways(self, tmp_path, capsys, monkeypatch,
                                      head, ok, bad, message):
        def must_not_sample(*args, **kwargs):
            raise AssertionError("a refused run reached the sampler")

        monkeypatch.setattr(path_sampler.PathLaw, "packed", must_not_sample)
        monkeypatch.setattr(scenarios_mod, "sample_many", must_not_sample)
        monkeypatch.setattr(scenarios_mod, "sample_path", must_not_sample)
        reasons = []
        bad_cfg, cfg = tmp_path / "bad.cfg", tmp_path / "c.cfg"
        bad_cfg.write_text(f"{head}replicas = {bad}\n")
        cfg.write_text(f"{head}replicas = {ok}\n")
        prefix = f"config error: line {head.count(chr(10)) + 1}: "
        for argv in (["validate"], ["run", "--out", str(tmp_path / "a")]):
            assert cli_main(argv + ["--config", str(bad_cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(prefix)
            reasons.append(err[len(prefix):].rstrip("\n"))
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
                         "--replicas", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: override ")
        reasons.append(err.removeprefix("config error: override ").rstrip("\n"))
        with pytest.raises(ConfigError) as exc:
            run_scenario(replace(parse_config(cfg.read_text()), replicas=bad))
        reasons.append(str(exc.value))
        assert message in reasons[0]
        assert reasons == [reasons[0]] * 4
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


# One valid line for each key or section a row of README's scenario-defaults
# table names, with its section; each measure kind stands for the measure row.
SAMPLE_LINES = {
    "replicas": [("", "replicas = 1000")],
    "repetitions": [("", "repetitions = 1")],
    "cells": [("", "cells = 8")],
    "x0": [("", "x0 = 0.0")],
    "truncation": [("", "truncation = 0.25")],
    "compensate": [("", "compensate = true")],
    "trend_levels": [("", "trend_levels = 4")],
    "[triplet] drift": [("triplet", "drift = 0.1")],
    "[triplet] brownian_variance": [("triplet", "brownian_variance = 0.0")],
    "measure": [("measure.atom.1", "size = 0.5\nrate = 8.0"),
                ("measure.family", "levels = 4"), ("measure.density", "power = 1.5")],
    "[drift_field]": [("drift_field", "name = constant")],
    "[diffusion_field]": [("diffusion_field", "name = constant")],
    "spacing": [("diagnostics", "spacing = 0.5")],
    "halfwidth": [("diagnostics", "halfwidth = 1e-9")],
    "mark_low": [("diagnostics", "mark_low = 0.1")],
    "mark_high": [("diagnostics", "mark_high = 0.6")],
    "window": [("diagnostics", "window = 0.01")],
    "threshold": [("diagnostics", "threshold = 0.1")],
}


def _with_line(text, section, line):
    """(text with `line` added, the number of its first line): a global key
    goes on line 2, right after the scenario line, a section at the end."""
    lines = text.splitlines()
    if section:
        lines += [f"[{section}]", *line.splitlines()]
        return "\n".join(lines) + "\n", len(lines) - line.count("\n")
    return "\n".join([lines[0], line, *lines[1:]]) + "\n", 2


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _defaults_table():
    """{row key: {scenario: cell}} from README's scenario-defaults table."""
    text = _readme().split("### Scenario defaults", 1)[1]
    rows = [line for line in text.splitlines() if line.startswith("| ")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    table = {}
    for row in rows[2:]:
        label, *cells = [cell.strip() for cell in row.strip("|").split("|")]
        for key in re.findall(r"`([^`]+)`", label) or [label]:
            table[key] = dict(zip(header[1:], cells))
    return table


class TestReadme:
    def test_defaults_table_names_every_key_a_scenario_reads(self):
        table = _defaults_table()
        assert set(table) == set(SAMPLE_LINES)
        assert set(next(iter(table.values()))) == set(SCENARIO_DEFAULTS)
        for scenario in SCENARIO_DEFAULTS:
            minimal = parse_config(f"scenario = {scenario}\n")
            set_fields = set()
            for key, cells in table.items():
                for section, line in SAMPLE_LINES[key]:
                    text, line_no = _with_line(f"scenario = {scenario}\n", section, line)
                    if cells[scenario]:
                        config = parse_config(text)
                        set_fields |= {f for f in vars(config)
                                       if getattr(config, f) != getattr(minimal, f)}
                    else:
                        with pytest.raises(ConfigError, match=(
                                f"^line {line_no}: scenario {scenario} does not read")):
                            parse_config(text)
            # the filled cells set exactly the fields the scenario reads
            assert set_fields == set(SCENARIO_DEFAULTS[scenario])

    def test_example_document_validates(self, tmp_path, capsys):
        example = _readme().split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(example)
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        assert parse_config(capsys.readouterr().out) == parse_config(example)


# Every setting a scenario reads must change its run. For each scenario, a
# small base document, and for each key the scenario reads, one line that sets
# it to a value other than the base's: the two documents differ only in that
# key. A key given as several lines or sections is one slot; a slot's line
# replaces the base's slot of the same name. The values are picked to act: S1's
# truncation 0.3 keeps its atom at 1.0 and changes nothing, and so does S3's
# window 0.01 or threshold 0.1, which leave `atoms_detected_x` False. S3's
# base drift field acts on its 4-level driver, whose terminal stays far below
# the default field's center 12, and its lattice tubes are wide enough to hold
# some of X; S4's spacing is not its driver's lattice, so a wider tube holds
# more of it.
LIVENESS_BASES = {
    "S1": {"replicas": "replicas = 1000"},
    "S2": {"replicas": "replicas = 2"},
    "S3": {"replicas": "replicas = 1000", "trend_levels": "trend_levels = 2",
           "measure": "[measure.family]\nlevels = 4",
           "drift_field": "[drift_field]\nname = logistic-slope\ncenter = 2.0",
           "halfwidth": "[diagnostics]\nhalfwidth = 0.01"},
    "S4": {"replicas": "replicas = 1000", "spacing": "[diagnostics]\nspacing = 0.5"},
    # two atoms, so that a window that holds one of them marks fewer jumps
    "S5": {"replicas": "replicas = 1000", "repetitions": "repetitions = 1",
           "measure": "[measure.atom.1]\nsize = 0.2\nrate = 2.0\n"
                      "[measure.atom.2]\nsize = 0.3\nrate = 2.0"},
    "S6": {"replicas": "replicas = 2"},
    "S7": {"replicas": "replicas = 1000", "cells": "cells = 8"},
}
_GLOBAL_LINES = {"seed": "seed = 7", "threads": "threads = 2", "horizon": "horizon = 0.5"}
_LAW_LINES = {
    "x0": "x0 = 0.1", "compensate": "compensate = true",
    "drift": "[triplet]\ndrift = 0.2", "brownian_variance": "[triplet]\nbrownian_variance = 0.1",
    "drift_field": "[drift_field]\nname = linear\nslope = 0.5"}
LIVENESS_LINES = {
    "S1": {**_GLOBAL_LINES, **_LAW_LINES, "replicas": "replicas = 1001",
           "cells": "cells = 16", "truncation": "truncation = 1.5",
           "measure": "[measure.atom.1]\nsize = 0.5\nrate = 2.0",
           "window": "[diagnostics]\nwindow = 1.0",
           "threshold": "[diagnostics]\nthreshold = 0.05"},
    "S2": {**_GLOBAL_LINES, "replicas": "replicas = 3", "cells": "cells = 64"},
    "S3": {**_GLOBAL_LINES, **_LAW_LINES, "replicas": "replicas = 1001",
           "cells": "cells = 16", "truncation": "truncation = 0.25",
           "measure": "[measure.family]\nlevels = 5", "trend_levels": "trend_levels = 3",
           "window": "[diagnostics]\nwindow = 10",
           "threshold": "[diagnostics]\nthreshold = 0.0005",
           "spacing": "[diagnostics]\nspacing = 0.5",
           "halfwidth": "[diagnostics]\nhalfwidth = 0.001"},
    "S4": {**_GLOBAL_LINES, **_LAW_LINES, "replicas": "replicas = 1001",
           "cells": "cells = 16", "truncation": "truncation = 0.25",
           "measure": "[measure.family]\nlevels = 6",
           "spacing": "[diagnostics]\nspacing = 0.25",
           "halfwidth": "[diagnostics]\nhalfwidth = 0.1"},
    # S5's other keys are S1's, and are held to the rule on S1, where a run
    # costs a tenth of S5's
    "S5": {"repetitions": "repetitions = 2", "mark_low": "[diagnostics]\nmark_low = 0.25",
           "mark_high": "[diagnostics]\nmark_high = 0.25"},
    "S6": {**_GLOBAL_LINES, "replicas": "replicas = 3", "cells": "cells = 64"},
    "S7": {**_GLOBAL_LINES, **_LAW_LINES, "replicas": "replicas = 1001",
           "cells": "cells = 16", "truncation": "truncation = 0.5",
           "measure": "[measure.atom.1]\nsize = 0.2\nrate = 2.0",
           "diffusion_field": "[diffusion_field]\nname = constant\nlevel = 1.0"},
}
_LIVENESS_SHARED = {"S5": "S1"}
#: Keys that feed only diagnostics: their pair must change a diagnostic other
#: than the key's own echo, which bears the key's name.
_DIAGNOSTIC_KEYS = {"window", "threshold", "spacing", "halfwidth", "trend_levels"}
#: Keys that change nothing; each is a strict xfail until its removal.
_DEAD_KEYS = {"threads": "runs are single-threaded and `threads` is only echoed in "
                         "summary.json; perfbench/workloads.py writes it, so its "
                         "removal waits for ROADMAP item 1 PR B"}


def _liveness_document(scenario, slots):
    lines = [f"scenario = {scenario}", *sorted(slots.values(), key=lambda v: v[0] == "[")]
    return "\n".join(lines) + "\n"


@functools.cache
def _liveness_run(text):
    """(samples.csv bytes, summary.json diagnostics) of one document's run."""
    with tempfile.TemporaryDirectory() as out:
        run_scenario(parse_config(text), out_dir=out)
        out = Path(out)
        return ((out / "samples.csv").read_bytes(),
                json.loads((out / "summary.json").read_text())["diagnostics"])


def _without_echo(diagnostics, key):
    """diagnostics without the entry named `key`, each dict reduced to its
    values: S3's levels by trend level echo the levels in their keys."""
    return {name: list(value.values()) if isinstance(value, dict) else value
            for name, value in diagnostics.items() if name != key}


_LIVENESS_CASES = [
    pytest.param(scenario, key, id=f"{scenario}-{key}", marks=[pytest.mark.xfail(
        strict=True, reason=_DEAD_KEYS[key])] if key in _DEAD_KEYS else [])
    for scenario, lines in LIVENESS_LINES.items() for key in lines]


class TestEveryKeyActs:
    # `scenario` picks the run; it is not a setting of one
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_DEFAULTS))
    def test_every_read_key_has_a_pair(self, scenario):
        shared = _LIVENESS_SHARED.get(scenario)
        covered = set(LIVENESS_LINES[scenario]) | (
            set(LIVENESS_LINES[shared]) & fields_read(scenario) if shared else set())
        assert sorted(covered) == sorted(fields_read(scenario) - {"scenario"})

    @pytest.mark.parametrize("scenario,key", _LIVENESS_CASES)
    def test_a_second_value_changes_the_run(self, scenario, key):
        base = LIVENESS_BASES[scenario]
        samples, diagnostics = _liveness_run(_liveness_document(scenario, base))
        other_samples, other_diagnostics = _liveness_run(_liveness_document(
            scenario, {**base, key: LIVENESS_LINES[scenario][key]}))
        if key in _DIAGNOSTIC_KEYS:
            assert _without_echo(other_diagnostics, key) != _without_echo(diagnostics, key)
        else:
            assert other_samples != samples


@st.composite
def _documents_with_a_refused_key(draw):
    config = draw(_configs)
    text = serialize_config(config)
    try:
        parse_config(text)
    except ConfigError:
        assume(False)
    refused = sorted(key for key, cells in _defaults_table().items()
                     if not cells[config.scenario])
    section, line = draw(st.sampled_from(SAMPLE_LINES[draw(st.sampled_from(refused))]))
    return config.scenario, *_with_line(text, section, line)


@settings(max_examples=100, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(_documents_with_a_refused_key())
def test_a_refused_key_fails_validate_on_its_line(tmp_path, capsys, document):
    scenario, text, line_no = document
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: line {line_no}: scenario {scenario} does not read ")
