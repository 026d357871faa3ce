import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import levyreg
import levyreg.cli as cli_mod
import levyreg.rng as rng_mod
import levyreg.scenarios as scenarios_mod
from levyreg import path_sampler
from levyreg.cli import main as cli_main
from levyreg import config as config_mod
from levyreg.config import (
    ConfigError,
    parse_config,
    plan_document,
    plan_run,
    serialize_config,
)
from levyreg.levy_spec import DensityForm, FiniteAtomic
from levyreg.scenarios import RunSummary, list_scenarios, run_scenario


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        config = parse_config("scenario = S1\n")
        assert config.scenario == "S1"
        assert config.seed == 2024
        assert config.threads == 1
        assert config.horizon == 1.0
        assert config.replicas is None
        assert config.measure is None

    def test_comments_and_blank_lines(self):
        config = parse_config(
            "# a comment\n\nscenario = S2  # trailing comment\nreplicas = 10\n")
        assert config.scenario == "S2"
        assert config.replicas == 10

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="replicas"):
            parse_config("scenario = S1\nreplicas = -5\n")

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="lines 2 and 3"):
            parse_config("scenario = S1\nseed = 1\nseed = 2\n")

    def test_atom_spelled_twice_is_a_duplicate(self, tmp_path, capsys):
        # [measure.atom.01] is atom 1: its size silently replaced the first one
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S1\n[measure.atom.1]\nsize = 1.0\nrate = 2.0\n"
                       "[measure.atom.01]\nsize = 3.0\n")
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ("config error: duplicate key 'size' in "
                                           "section [measure.atom.1]: lines 3 and 6\n")

    def test_atom_index_past_nine_digits_is_an_unknown_section(self):
        # an index of 5000 digits ended in int()'s ValueError and a traceback
        with pytest.raises(ConfigError, match="^line 3: unknown key 'size'"):
            parse_config(f"scenario = S1\n[measure.atom.{'1' * 5000}]\nsize = 1.0\n")

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("scenario = S1\nbogus = 3\n")

    def test_unknown_scenario_id(self):
        with pytest.raises(ConfigError, match="S9"):
            parse_config("scenario = S9\n")

    def test_atom_measure_section(self):
        config = parse_config(
            "scenario = S1\n[measure.atom.1]\nsize = 1.0\nrate = 2.0\n"
            "[measure.atom.2]\nsize = -0.5\nrate = 1.0\n")
        spec = config.measure.build()
        assert isinstance(spec, FiniteAtomic)
        assert spec.atoms == ((1.0, 2.0), (-0.5, 1.0))

    def test_family_measure_section(self):
        config = parse_config(
            "scenario = S3\n[measure.family]\nkind = dyadic\nlevels = 10\n")
        spec = config.measure.build()
        assert isinstance(spec, FiniteAtomic) and spec.idealized_infinite
        assert spec.atoms == tuple((2.0 ** -n, 2.0 ** n) for n in range(1, 11))

    def test_density_measure_section(self):
        config = parse_config(
            "scenario = S1\n[measure.density]\npower = 1.5\nabs_max = 1.0\n")
        spec = config.measure.build()
        assert isinstance(spec, DensityForm)
        assert spec.intensity(0.5) == pytest.approx(0.5 ** -1.5)

    def test_conflicting_measures_rejected(self):
        with pytest.raises(ConfigError, match="at most one"):
            parse_config("scenario = S1\n[measure.atom.1]\nsize = 1.0\nrate = 1.0\n"
                         "[measure.family]\nlevels = 4\n")

    @pytest.mark.parametrize("sections", [
        "[measure.atom.1]\nsize = 1.0\nrate = 1.0\n[measure.density]\npower = 1.5\n",
        "[measure.family]\nlevels = 4\n[measure.density]\npower = 1.5\n"])
    def test_every_pair_of_measures_rejected(self, sections):
        with pytest.raises(ConfigError, match="at most one"):
            parse_config("scenario = S1\n" + sections)

    def test_eta_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match="line 3: unknown key 'eta'"):
            parse_config("scenario = S1\n[diagnostics]\neta = 0.1\n")

    def test_field_sections(self):
        config = parse_config(
            "scenario = S1\n[drift_field]\nname = logistic-slope\nlow = 0.1\n"
            "high = 0.9\n")
        assert config.drift_field.name == "logistic-slope"
        assert config.drift_field.params["low"] == 0.1
        # defaults are canonicalized in
        assert "rate" in config.drift_field.params

    def test_unknown_field_name(self):
        with pytest.raises(ConfigError, match="unknown field name"):
            parse_config("scenario = S1\n[drift_field]\nname = cubic\n")

    @pytest.mark.parametrize("body,line", [("name = linear\nlevel = 1\n", 4),
                                           ("level = 1\nname = linear\n", 3)])
    def test_another_fields_parameter_has_line_number(self, body, line):
        with pytest.raises(ConfigError, match=f"^line {line}: unknown key 'level' "
                                              r"in \[drift_field\] for field 'linear'"):
            parse_config("scenario = S1\n[drift_field]\n" + body)

    def test_round_trip(self):
        text = ("scenario = S5\nreplicas = 1000\nseed = 9\nthreads = 2\n"
                "repetitions = 7\n[triplet]\ndrift = 0.05\n"
                "[measure.atom.1]\nsize = 0.3\nrate = 8.0\n"
                "[drift_field]\nname = linear\nslope = 0.4\n"
                "[diagnostics]\nmark_low = 0.1\nmark_high = 0.5\n")
        config = parse_config(text)
        assert parse_config(serialize_config(config)) == config

    def test_overrides(self):
        text = "scenario = S1\nreplicas = 1000\n"
        config, plan = plan_document(text, seed=5, replicas=2000)
        assert config == parse_config(text)
        assert (plan.config.seed, plan.config.replicas) == (5, 2000)
        # the output directory is only `levyreg run --out`, run_scenario's argument
        assert not hasattr(plan.config, "out_dir")
        with pytest.raises(TypeError):
            plan_document(text, out_dir="results")

    def test_threads_is_set_only_by_its_key(self):
        text = "scenario = S2\nthreads = 3\n"
        config = parse_config(text)
        assert config.threads == 3
        with pytest.raises(TypeError):
            plan_document(text, threads=2)
        with pytest.raises(TypeError):
            run_scenario(config, threads=2)

    @pytest.mark.parametrize("key,value", [("replicas", 0), ("seed", -1)])
    def test_override_range_error_names_key(self, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            plan_document("scenario = S2\n", **{key: value})

    def test_only_atoms_the_config_gives_are_held_to_truncation(self):
        # an atom at truncation is kept; an atom below it is refused, also
        # when run_scenario is handed the config; S1's truncation may still
        # drop the scenario's own default atom
        text = "scenario = S1\ntruncation = 0.5\n[measure.atom.1]\nsize = -0.5\nrate = 2.0\n"
        (law, _), = plan_run(parse_config(text)).laws
        assert law.rate == 2.0
        config = replace(parse_config(text), truncation=0.75)
        with pytest.raises(ConfigError, match="^atom size = -0.5 is below truncation"):
            run_scenario(config)
        (law, _), = plan_run(parse_config("scenario = S1\ntruncation = 1.5\n")).laws
        assert law.rate == 0.0

    # an atom at truncation is sampled, so it is compensated too: 0.3 - 0.5 * 2.0
    # at truncation 0.5 as at 0.49; S3's default truncation 2^-12 keeps all 12
    # levels, each 2^-k at rate 2^k
    @pytest.mark.parametrize("text,drift", [
        ("scenario = S1\ntruncation = 0.5\ncompensate = true\n"
         "[measure.atom.1]\nsize = 0.5\nrate = 2.0\n", -0.7),
        ("scenario = S1\ntruncation = 0.49\ncompensate = true\n"
         "[measure.atom.1]\nsize = 0.5\nrate = 2.0\n", -0.7),
        ("scenario = S3\ncompensate = true\n", -12.0)],
        ids=["S1-atom-at-truncation", "S1-atom-above-truncation", "S3"])
    def test_compensator_covers_every_kept_atom(self, text, drift):
        (law, _), = plan_run(parse_config(text)).laws
        assert law.drift == drift

    # the replica stream ids of a run must stay below rng.TAG_BAND = 2^48,
    # the first id of child tag 1; for S5 that is replicas * repetitions
    @pytest.mark.parametrize("text,line", [
        (f"scenario = S6\nreplicas = {2 ** 48 + 1}\n", 2),
        (f"scenario = S3\ntrend_levels = 4,6\nreplicas = {2 ** 48 + 1}\nseed = 3\n", 3),
        (f"scenario = S5\nreplicas = {2 ** 47}\nrepetitions = 3\n", 2)])
    def test_replica_streams_past_the_tag_band_rejected_with_line(self, text, line):
        with pytest.raises(ConfigError, match=f"^line {line}: .*reuses random streams"):
            parse_config(text)

    # no scenario caps its replicas below the band's edge
    @pytest.mark.parametrize("text", [
        "scenario = S6\nreplicas = 100001\n",
        "scenario = S3\ntrend_levels = 4\nreplicas = 10000001\n",
        "scenario = S3\nreplicas = 10000001\n",
        "scenario = S1\nreplicas = 10000001\n"])
    def test_replica_streams_within_the_tag_band_accepted(self, text):
        config = parse_config(text)
        assert parse_config(serialize_config(config)) == config
        assert plan_document(text, seed=1)[1].config.replicas == config.replicas

    # the result budget refuses runs long before the band's edge: these two
    # documents at the edge were accepted, and their 2^48 samples.csv rows
    # alone would need about 40 PB
    @pytest.mark.parametrize("text,line", [
        (f"scenario = S6\nreplicas = {2 ** 48}\n", 2),
        (f"scenario = S5\nreplicas = {2 ** 47}\nrepetitions = 2\n", 3)])
    def test_replica_streams_at_the_tag_band_pass_the_result_budget(self, text, line):
        with pytest.raises(ConfigError, match=f"^line {line}: .*the result budget"):
            parse_config(text)

    @pytest.mark.parametrize("text", ["scenario = S6\n", "scenario = S3\ntrend_levels = 4\n"])
    def test_override_past_the_tag_band_rejected(self, text):
        with pytest.raises(ConfigError, match="^override .*the result budget"):
            plan_document(text, replicas=2 ** 48)
        with pytest.raises(ConfigError, match="reuses random streams"):
            plan_document(text, replicas=2 ** 48 + 1)


class TestStreamIndependence:
    """No Philox key serves two of a run's independent draws."""

    def test_s6_checks_draw_from_distinct_streams(self, monkeypatch):
        ids = []
        real = scenarios_mod.stream_draws

        def spy(seed, stream_ids):
            stream_ids = list(stream_ids)
            ids.extend((seed, stream_id) for stream_id in stream_ids)
            return real(seed, stream_ids)

        monkeypatch.setattr(scenarios_mod, "stream_draws", spy)
        run_scenario(parse_config("scenario = S6\nseed = 707\nreplicas = 7\n"))
        # check (a) 5 paths, (b) and (c) one config per replica, (d) one path
        assert len(ids) == 5 + 7 + 7 + 1
        assert len(set(ids)) == len(ids)

    def test_s3_trend_levels_draw_from_distinct_streams(self, monkeypatch):
        ids, purpose = {}, []
        real_solve = scenarios_mod._sample_and_solve
        real_at = rng_mod.StreamGenerator.at
        real_words = path_sampler.philox_words

        def sample_and_solve(config, law, solver, stream_offset=0):
            purpose.append(stream_offset)
            ids[stream_offset] = {"words": [], "at": []}
            return real_solve(config, law, solver, stream_offset)

        def at(streams, stream_id):
            ids[purpose[-1]]["at"].append(int(stream_id))
            return real_at(streams, stream_id)

        def philox_words(seed, stream_ids, k):
            ids[purpose[-1]]["words"].extend(stream_ids.tolist())
            return real_words(seed, stream_ids, k)

        monkeypatch.setattr(scenarios_mod, "_sample_and_solve", sample_and_solve)
        monkeypatch.setattr(rng_mod.StreamGenerator, "at", at)
        monkeypatch.setattr(path_sampler, "philox_words", philox_words)
        # level 1 (2 mean jumps) draws its rows as arrays, level 3 (14) per replica
        run_scenario(parse_config("scenario = S3\nseed = 5\nreplicas = 1000\n"
                                  "trend_levels = 1,3\n[measure.family]\nlevels = 3\n"))
        # the main run and each level draw every replica from their own ids:
        # an array row meets its id in philox_words once, or twice when it
        # outruns its words and is computed again with more; a row drawn per
        # replica meets it once in `at`
        assert len(ids) == 3
        drawn = []
        for seen in ids.values():
            assert len(set(seen["at"])) == len(seen["at"])
            assert max(Counter(seen["words"]).values(), default=0) <= 2
            drawn.append(set(seen["words"]) | set(seen["at"]))
        assert [len(d) for d in drawn] == [1000] * 3
        assert len(set().union(*drawn)) == 3 * 1000
        level_1 = list(ids.values())[1]
        assert level_1["at"] == [] and len(level_1["words"]) > 1000


class TestRunSummary:
    def test_json_carries_every_field(self):
        s = RunSummary(scenario="S1", seed=3, replicas=100, threads=2,
                       failed_replicas=(4, 7), wall_time_s=1.25,
                       diagnostics={"a": 1.0, "b": True, "c": [1, 2]})
        assert json.loads(s.to_json()) == {
            "scenario": "S1", "seed": 3, "replicas": 100, "threads": 2,
            "failures": 2, "failed_replicas": [4, 7], "wall_time_s": 1.25,
            "diagnostics": {"a": 1.0, "b": True, "c": [1, 2]},
            "version": levyreg.__version__}


class TestListScenarios:
    def test_contains_all_ids_in_order(self):
        text = list_scenarios()
        positions = [text.index(sid) for sid in
                     ("S1", "S2", "S3", "S4", "S5", "S6", "S7")]
        assert positions == sorted(positions)

    def test_catalogue_is_stable(self):
        assert list_scenarios() == list_scenarios()


class TestRunScenarioOutputs:
    def test_writes_samples_summary_and_plots(self, tmp_path):
        config = parse_config("scenario = S1\nreplicas = 1200\nseed = 3\n")
        summary = run_scenario(config, out_dir=tmp_path)
        csv = (tmp_path / "samples.csv").read_text().splitlines()
        assert csv[0] == "replica,terminal_x,terminal_z,failed"
        assert len(csv) == 1201
        first = csv[1].split(",")
        assert first[0] == "0" and first[3] == "0"
        float(first[1]), float(first[2])
        loaded = json.loads((tmp_path / "summary.json").read_text())
        assert loaded["scenario"] == "S1"
        assert loaded["seed"] == 3
        assert "wall_time_s" in loaded
        assert (tmp_path / "plots" / "histogram.gp").exists()
        assert summary.failures == 0

    def test_same_seed_same_bytes(self, tmp_path):
        config = parse_config("scenario = S1\nreplicas = 1200\nseed = 11\n")
        run_scenario(config, out_dir=tmp_path / "a")
        run_scenario(config, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "samples.csv").read_bytes() == \
            (tmp_path / "b" / "samples.csv").read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        text = "scenario = S1\nreplicas = 1200\nseed = 11\n"
        run_scenario(parse_config(text), out_dir=tmp_path / "t1")
        run_scenario(parse_config(text + "threads = 8\n"), out_dir=tmp_path / "t8")
        assert (tmp_path / "t1" / "samples.csv").read_bytes() == \
            (tmp_path / "t8" / "samples.csv").read_bytes()
        s1 = json.loads((tmp_path / "t1" / "summary.json").read_text())
        s8 = json.loads((tmp_path / "t8" / "summary.json").read_text())
        assert (s1["threads"], s8["threads"]) == (1, 8)
        for key in ("wall_time_s", "threads"):
            s1.pop(key), s8.pop(key)
        assert s1 == s8

    CHUNKED = {name: f"scenario = {name}\nreplicas = 1000\nseed = 12\ncells = 8\n"
               for name in ("S1", "S3", "S4", "S7")}
    # a compensated density, about 122.5 jumps per path
    CHUNKED["S1-density"] = ("scenario = S1\nseed = 9\nreplicas = 1000\n"
                             "truncation = 0.001\ncompensate = true\n"
                             "[measure.density]\npower = 1.5\n")
    # S3 is the one law here that needs two chunks at the default budget
    DEFAULT_CHUNKS = {"S3": [500, 500]}

    # A budget of B jumps is 16 * B bytes; a chunk holds 16 * B // (bytes per
    # jump * mean jumps + Brownian bytes) paths. S1 and S7 expect 2 jumps per
    # path and S4 12, all at 9 bytes (uint8 atom codes); the density expects
    # about 122.5 at 16 bytes; S3 8190 at 9. S7 adds 8 bytes for each of its
    # 9 cell edges: at B = 300 its jumps alone would cut four chunks (4800 //
    # 18 = 266 paths), and its 90 bytes a path cut 19. One path per chunk
    # would cost S7 over a minute; S3 gets the three chunks of 16-byte jumps.
    @pytest.mark.parametrize("scenario,budget,chunks", [
        ("S1", 1, [1] * 1000),          # 16 // 18 = 0 paths: one per chunk
        ("S1", 300, [250] * 4),         # 4800 // 18 = 266
        ("S4", 1, [1] * 1000),
        ("S4", 2000, [250] * 4),        # 32000 // 108 = 296
        ("S7", 300, [53] * 12 + [52] * 7),   # 4800 // 90 = 53
        ("S1-density", 30000, [200] * 5),
        ("S1", 400, [334, 333, 333]),   # 6400 // 18 = 355
        ("S3", 2_000_000, [334, 333, 333])])  # 32e6 // 73710 = 434
    def test_chunk_budget_does_not_change_bytes(self, tmp_path, monkeypatch, scenario,
                                                budget, chunks):
        seen = []
        real = path_sampler.PathLaw.packed

        def spy(law, seed, stream_offset, n, cells):
            seen.append(n)
            return real(law, seed, stream_offset, n, cells)

        def run(out):
            seen.clear()
            run_scenario(parse_config(self.CHUNKED[scenario]), out_dir=out)
            summary = json.loads((out / "summary.json").read_text())
            summary.pop("wall_time_s")
            return (out / "samples.csv").read_bytes(), summary, list(seen)

        monkeypatch.setattr(path_sampler.PathLaw, "packed", spy)
        default = run(tmp_path / "default")
        monkeypatch.setattr(path_sampler, "CHUNK_BYTES", 16 * budget)
        small = run(tmp_path / "small")
        assert default[2] == self.DEFAULT_CHUNKS.get(scenario, [1000])
        assert small[2] == chunks
        assert small[:2] == default[:2]

    def test_s3_chunks_fill_the_byte_budget(self, monkeypatch):
        # 8190 jumps per path at 9 bytes (a float64 time and a uint8 code) fit
        # 868 paths in path_sampler.CHUNK_BYTES, where 16-byte jumps fit 488:
        # 2 chunks instead of 3 at 1000 replicas, 12 instead of 21 at 10 000
        plan = plan_run(parse_config("scenario = S3\n"))
        config, ((law, _),) = plan.config, plan.laws
        assert (law.mean_jumps, law.bytes_per_jump) == (8190.0, 9)
        seen = []

        def spy(law, seed, stream_offset, n, cells):
            seen.append(n)
            return n

        def chunks(replicas):
            seen.clear()
            scenarios_mod._sample_and_solve(replace(config, replicas=replicas), law,
                                            lambda n: (np.zeros(n),))
            return list(seen)

        monkeypatch.setattr(path_sampler.PathLaw, "packed", spy)
        assert chunks(1000) == [500, 500]
        assert chunks(10_000) == [834] * 4 + [833] * 8

    def test_s7_chunks_count_the_brownian_grid(self, monkeypatch):
        # 2 jumps per path at 9 bytes, and 129 float64 cell edges: 1050 bytes a
        # path fit 60 952 paths in path_sampler.CHUNK_BYTES. Counting the jumps
        # alone put all 100 000 in one chunk, with 103 MB of edges.
        plan = plan_run(parse_config("scenario = S7\n"))
        config, ((law, _),) = plan.config, plan.laws
        assert law.bytes_per_path == 9 * 2.0 + 8 * 129
        seen = []

        def spy(law, seed, stream_offset, n, cells):
            seen.append(n)
            return n

        def chunks(replicas):
            seen.clear()
            scenarios_mod._sample_and_solve(replace(config, replicas=replicas), law,
                                            lambda n: (np.zeros(n),))
            return list(seen)

        monkeypatch.setattr(path_sampler.PathLaw, "packed", spy)
        assert chunks(1000) == [1000]
        assert chunks(100_000) == [50_000, 50_000]

    def test_chunks_are_even(self, monkeypatch):
        (law, _), = plan_run(parse_config("scenario = S1\n")).laws
        assert law.bytes_per_path == 18.0

        def chunk_sizes(n, per_chunk):
            monkeypatch.setattr(path_sampler, "CHUNK_BYTES", 18 * per_chunk)
            return law.chunk_sizes(n)

        # S3 at seed 404: 488 paths per chunk made chunks of 488/488/24 rows
        assert chunk_sizes(1000, 488) == [334, 333, 333]
        for n in (1, 2, 3, 999, 1000, 1001, 10_000):
            for per_chunk in (1, 2, 7, 300, 488, 1000, 20_000):
                sizes = chunk_sizes(n, per_chunk)
                assert sum(sizes) == n and max(sizes) <= per_chunk
                assert len(sizes) == -(-n // per_chunk)
                assert max(sizes) - min(sizes) <= 1

    def test_driver_law_built_once_per_run(self, monkeypatch):
        # parsed first: validation plans the run too; plan_run computes the
        # rate with its own import of total_rate, hands it to path_law and
        # builds the law once
        config = parse_config(self.CHUNKED["S1-density"])
        calls = {"total_rate": 0, "_density_size_table": 0, "packed": 0}
        for module, name in ((config_mod, "total_rate"),
                             (path_sampler, "total_rate"),
                             (path_sampler, "_density_size_table"),
                             (path_sampler.PathLaw, "packed")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(path_sampler, "CHUNK_BYTES", 16 * 30000)
        scenarios_mod.run_s1(plan_run(config))
        assert calls == {"total_rate": 1, "_density_size_table": 1, "packed": 5}

    @pytest.mark.parametrize("text,laws", [
        (CHUNKED["S1-density"], 1),
        ("scenario = S3\nreplicas = 1000\ntrend_levels = 2, 3\n", 3),
        ("scenario = S6\n", 0),
    ])
    def test_each_law_rate_computed_once_per_plan(self, monkeypatch, text, laws):
        config = parse_config(text)
        calls = []
        for module in (config_mod, path_sampler):
            def counted(*args, _real=module.total_rate):
                calls.append(args)
                return _real(*args)
            monkeypatch.setattr(module, "total_rate", counted)
        assert len(plan_run(config).laws) == laws
        assert len(calls) == laws

    def test_s5_driver_law_built_once_for_all_repetitions(self, monkeypatch):
        builds, decomps = [], []

        def counted(*args, _real=path_sampler.path_law, **kwargs):
            builds.append(args)
            return _real(*args, **kwargs)

        def decompose(*args, _real=scenarios_mod.decompose_first_jump):
            decomps.append(args)
            return _real(*args)

        for module in (path_sampler, config_mod):
            monkeypatch.setattr(module, "path_law", counted)
        monkeypatch.setattr(scenarios_mod, "decompose_first_jump", decompose)
        config = parse_config("scenario = S5\nseed = 55\nreplicas = 1000\nrepetitions = 3\n")
        builds.clear()   # parse_config plans the run too
        scenarios_mod.run_s5(plan_run(config))
        assert len(builds) == 1
        # the monotonicity check reuses repetition 0's decompositions
        assert len(decomps) == 3 * 1000

    def test_s3_trend_laws_keep_the_brownian_part(self):
        plan = plan_run(parse_config(
            "scenario = S3\nseed = 5\nreplicas = 1000\ntrend_levels = 3,5\n"
            "[triplet]\nbrownian_variance = 0.01\n[measure.family]\nlevels = 6\n"))
        laws = [law for law, _ in plan.laws]
        assert len(laws) == 3
        assert all(law.brownian_grid is not None for law in laws)
        assert all(law.brownian_sd == laws[0].brownian_sd > 0.0 for law in laws)
        # trend level lv draws its replicas from child tag lv
        assert [first for _, first in plan.laws] == [
            0, *(rng_mod.RngStream(5).child(lv).stream_id for lv in (3, 5))]

    @pytest.mark.parametrize("scenario", ["S1", "S3", "S4", "S5", "S7"])
    def test_brownian_skeleton_is_drawn_on_the_cells(self, scenario):
        plan = plan_run(parse_config(f"scenario = {scenario}\nhorizon = 1.5\ncells = 25\n"
                                     "[triplet]\nbrownian_variance = 0.3\n"))
        config, ((law, _),) = plan.config, plan.laws
        packed = law.packed(config.seed, 0, 2, config.cells)
        assert np.array_equal(law.brownian_grid, packed.edges)
        path = law.path(rng_mod.RngStream(config.seed, 1).generator())
        assert np.array_equal(path.brownian.values, packed.brown_edges[1])

    def test_compensate_shifts_no_jump_terminals(self):
        # the atom (1.0, rate 2) above trunc 0.5 compensates by 2.0 per unit time
        text = "scenario = S1\nreplicas = 2000\nseed = 8\nhorizon = 1.5\n"
        plain = scenarios_mod.run_s1(plan_run(parse_config(text)))
        comp = scenarios_mod.run_s1(plan_run(parse_config(text + "compensate = true\n")))
        no_jump = plain.terminal_z == 0.3 * 1.5
        assert no_jump.sum() > 50
        assert np.allclose(comp.terminal_z[no_jump] - plain.terminal_z[no_jump],
                           -2.0 * 1.5, rtol=0.0, atol=1e-12)
        assert np.allclose(comp.terminal_z - plain.terminal_z, -2.0 * 1.5,
                           rtol=0.0, atol=1e-12)
        # the no-jump skeleton follows the compensated drift
        skeleton = comp.diagnostics["skeleton_location"]
        assert np.allclose(comp.terminal_x[no_jump], skeleton, rtol=0.0, atol=1e-9)

    def test_failed_replicas_isolated(self, tmp_path, monkeypatch):
        real = scenarios_mod.ode_terminals

        def sabotage(a, packed, x0):
            x, y = real(a, packed, x0)
            x = x.copy()
            x[3] = np.nan
            return x, y

        monkeypatch.setattr(scenarios_mod, "ode_terminals", sabotage)
        config = parse_config("scenario = S1\nreplicas = 1100\nseed = 5\n")
        summary = run_scenario(config, out_dir=tmp_path)
        assert summary.failed_replicas == (3,)
        rows = (tmp_path / "samples.csv").read_text().splitlines()
        assert rows[4].endswith(",1")
        assert json.loads((tmp_path / "summary.json").read_text())["failures"] == 1


class TestCli:
    def test_list_scenarios_command(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "S1" in out and "S7" in out

    def test_validate_echoes_canonical_form(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S2\nreplicas = 50\n")
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "scenario = S2" in out
        assert "replicas = 50" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S1\nreplicas = -1\n")
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert "replicas" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S1\nseed = 4\nthreads = 2\n")
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg), "--out", str(out),
                         "--replicas", "1000"])
        assert code == 0
        assert (out / "samples.csv").exists()
        assert (out / "summary.json").exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["replicas"] == 1000
        assert payload["threads"] == 2

    @pytest.mark.parametrize("flag,value", [("--replicas", "0"), ("--seed", "-1")])
    def test_out_of_range_override_exit_code(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S2\n")
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg), "--out", str(out), flag, value])
        assert code == 1
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--replicas", "abc"], "argument --replicas: invalid int value: 'abc'"),
        (["--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["--threads", "2"], "unrecognized arguments: --threads 2")])
    def test_usage_error_exit_code(self, tmp_path, capsys, argv, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S2\nreplicas = 5\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg), "--out", str(out)] + argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: levyreg ")
        assert err.endswith(f": error: {message}\n")
        assert not out.exists()

    def test_threads_env_variable_is_ignored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LEVYREG_THREADS", "abc")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S2\nreplicas = 5\nthreads = 4\n")
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 4

    @pytest.mark.parametrize("argv,text,code,plans,message", [
        (["run"], "scenario = S2\nreplicas = 5\n", 0, 1, None),
        (["run", "--seed", "5"], "scenario = S2\nreplicas = 5\n", 0, 1, None),
        # the range check refuses before anything is planned
        (["run", "--replicas", "0"], "scenario = S2\n", 1, 0,
         "config error: override out of range for 'replicas': 0\n"),
        (["run", "--replicas", str(2 ** 48 + 1)], "scenario = S6\n", 1, 1,
         "config error: override replicas = "),
        (["validate"], "scenario = S2\nreplicas = 5\n", 0, 1, None),
        # refused for its own replicas alone, the document runs with an
        # override that the plan accepts; validate still refuses it
        (["run", "--replicas", "1000"], "scenario = S1\nreplicas = 999\n", 0, 1, None),
        (["validate"], "scenario = S1\nreplicas = 999\n", 1, 1,
         "config error: line 2: replicas = 999 is below"),
        # a refusal for a key the override does not set names the key's line
        (["run", "--replicas", "2000"], "scenario = S1\ncells = 8000000\n", 1, 1,
         "config error: line 2: cell edges per path "),
    ])
    def test_a_command_plans_once(self, tmp_path, capsys, monkeypatch,
                                  argv, text, code, plans, message):
        calls = []
        real = config_mod.plan_run

        def spy(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(config_mod, "plan_run", spy)
        monkeypatch.setattr(scenarios_mod, "plan_run", spy)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = ["--out", str(tmp_path / "out")] if argv[0] == "run" else []
        assert cli_main(argv[:1] + ["--config", str(cfg)] + out + argv[1:]) == code
        assert len(calls) == plans
        if message is not None:
            assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("text", ["scenario = S6\n", "scenario = S3\ntrend_levels = 4\n"])
    def test_override_past_the_tag_band_exit_code(self, tmp_path, capsys, monkeypatch, text):
        def must_not_run(*args):
            raise AssertionError("a config past the tag band reached the runner")

        monkeypatch.setattr(cli_mod, "run_plan", must_not_run)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg), "--out", str(out),
                         "--replicas", str(2 ** 48 + 1)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: override replicas = ")
        assert "reuses random streams" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("sigma", [
        "", "[diffusion_field]\nname = logistic-slope\nlow = 0.0\n",
    ], ids=["s7-sigma", "zero-low"])
    def test_s7_with_a_large_driver_runs_to_the_end(self, tmp_path, capsys, sigma):
        # |Z_t| reaches about 90: the Doss flow is the field's closed form,
        # whose cost does not grow with |Z_t| as the jump-flow kernel's does;
        # with low = 0, sigma falls toward 0 where the driver carries X
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S7\nseed = 174687674\nhorizon = 2.842241721848201\n"
                       "compensate = true\nreplicas = 1000\n" + sigma +
                       "[measure.atom.1]\nsize = -0.31754892522783473\n"
                       "rate = 31.330562291225355\n"
                       "[measure.atom.2]\nsize = -1.9\nrate = 12.23261386359438\n")
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["failures"] == 0
        assert summary["diagnostics"]["equivalence_pass"] is True

    def test_s7_flow_past_its_pole_flags_replicas(self, tmp_path, capsys):
        # arctan-diffusion's flow diverges once arctan(x) + Z_t passes pi/2
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S7\nseed = 5\nreplicas = 1000\n"
                       "[diffusion_field]\nname = arctan-diffusion\n"
                       "amplitude = 1.0\ncurvature = 1.0\ncenter = 0.0\n"
                       "[measure.atom.1]\nsize = 0.8\nrate = 2.0\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        rows = [r.split(",") for r in (out / "samples.csv").read_text().splitlines()[1:]]
        flagged = [int(r[0]) for r in rows if r[3] == "1"]
        assert 0 < summary["failures"] == len(flagged) < len(rows)
        assert flagged == summary["failed_replicas"]
        assert "numeric failures" in capsys.readouterr().err

    def test_s7_huge_atom_flags_every_replica_that_jumps(self, tmp_path, capsys):
        # a jump of 1e300 needs far more flow substeps than the Marcus engine
        # runs; its substep count once wrapped, and replica 3 reported a
        # finite terminal_x of 1.536 without a failure
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S7\nseed = 1\nreplicas = 1000\ncells = 8\n"
                       "[measure.atom.1]\nsize = 1e300\nrate = 1.0\n")
        out = tmp_path / "out"
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        rows = [r.split(",") for r in (out / "samples.csv").read_text().splitlines()[1:]]
        jumped = [int(r[0]) for r in rows if abs(float(r[2])) > 1e299]
        flagged = [int(r[0]) for r in rows if r[3] == "1"]
        assert 3 in jumped and jumped == flagged
        assert all(np.isfinite(float(r[1])) for r in rows if r[3] == "0")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_replicas"] == flagged
        assert capsys.readouterr().err == \
            f"numeric failures in {len(flagged)} of {len(rows)} replicas\n"

    def test_huge_rate_is_rejected_before_sampling(self, tmp_path, capsys):
        # 1e12 expected jumps per path cannot fit in one chunk of packed paths
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S1\n[measure.atom.1]\nsize = 1.0\nrate = 1e12\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 4: ") and "chunk budget" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_that_is_not_utf8(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"scenario = S1\n# \xff\xfe comment\nreplicas = 1000\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(out)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == \
            "config error: line 2: the file is not UTF-8 (byte 0xff)\n"
        assert not out.exists()

    # the terminal X = Y + Z_horizon overflows in every replica
    @pytest.mark.parametrize("text", [
        "scenario = S1\nreplicas = 1000\nx0 = -1e308\n[triplet]\ndrift = -1e308\n",
        "scenario = S5\nreplicas = 1000\nrepetitions = 2\nx0 = 1e308\n"
        "[triplet]\ndrift = 1e308\n"], ids=["S1", "S5"])
    def test_overflowing_terminals_are_flagged(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        rows = (out / "samples.csv").read_text().splitlines()[1:]
        assert code == 2
        assert capsys.readouterr().err == \
            f"numeric failures in {len(rows)} of {len(rows)} replicas\n"
        assert all(row.endswith(",1") for row in rows)

    def test_s1_skeleton_that_overflows(self, tmp_path, capsys):
        # the no-jump skeleton x' = a(x) + 1e308 overflows before the horizon,
        # while every replica's terminal stays finite
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S1\nreplicas = 1000\n[triplet]\ndrift = 1e308\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert diagnostics["skeleton_location"] is None
        assert diagnostics["location_within_window"] is False

    @staticmethod
    def _run_leaves_unimported(tmp_path, text, module):
        """A `levyreg run` of the document `text` in a fresh interpreter, and
        whether it exits 0 without importing `module`."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        code = ("import sys\nfrom levyreg.cli import main\n"
                f"code = main(['run', '--config', {str(cfg)!r}, '--out', "
                f"{str(tmp_path / 'out')!r}])\n"
                f"print(code, {module!r} in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(levyreg.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        return done.stdout.splitlines()[-1] == "0 False"

    # np.unique imported numpy.ma (1.6 MiB) on every S1, S3 and S7 chunk, and
    # in the scalar solvers' segment knots (S2, S6)
    @pytest.mark.parametrize("text", [
        "scenario = S1\nseed = 303\nreplicas = 1000\n",
        "scenario = S3\nseed = 404\nreplicas = 1000\n[measure.family]\nlevels = 8\n",
        "scenario = S2\nseed = 101\nreplicas = 4\n",
        "scenario = S6\nseed = 707\nreplicas = 5\n"],
        ids=["S1", "S3", "S2", "S6"])
    def test_run_leaves_numpy_ma_unimported(self, tmp_path, text):
        assert self._run_leaves_unimported(tmp_path, text, "numpy.ma")

    # S6's remainder fit once evaluated its 332 100-point grid in one piece,
    # a tracemalloc peak of 21.2 MiB; in row blocks the whole run peaks near
    # 3.5 MiB
    def test_s6_run_holds_no_whole_remainder_grid(self):
        plan = plan_run(parse_config("scenario = S6\nseed = 707\nreplicas = 5\n"))
        tracemalloc.start()
        try:
            scenarios_mod.run_plan(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    # a law below 10 mean jumps without a Brownian part computes a row that
    # outruns its words again with more words, and S6 reads its configs' draws
    # off Philox words; numpy.random brings in _hashlib, secrets and hmac,
    # about 6 MiB of RSS
    @pytest.mark.parametrize("text", [
        "scenario = S1\nseed = 303\nreplicas = 1000\n",
        "scenario = S3\nseed = 404\nreplicas = 1000\n[measure.family]\nlevels = 2\n",
        "scenario = S6\nseed = 707\nreplicas = 5\n"],
        ids=["S1", "S3-2-levels", "S6"])
    def test_light_law_run_leaves_numpy_random_unimported(self, tmp_path, text):
        assert self._run_leaves_unimported(tmp_path, text, "numpy.random")

    # S5 holds about 2.4 KB of paths per replica within a repetition: 2 000 000
    # replicas at one repetition need about 4.8 GB, past the 4 GiB budget; the
    # budget counts both replicas and repetitions, so it names the later line
    @pytest.mark.parametrize("replicas", [1_000_000, 2_000_000])
    def test_s5_replicas_at_the_path_budget(self, tmp_path, capsys, replicas):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = S5\nreplicas = {replicas}\nrepetitions = 1\n")
        code = cli_main(["validate", "--config", str(cfg)])
        err = capsys.readouterr().err
        if replicas == 1_000_000:
            assert code == 0 and err == ""
        else:
            assert code == 1
            assert err.startswith("config error: line 3: S5 (replicas = 2000000, "
                                  "repetitions = 1) passes the result budget")

    # rows and paths were once budgeted apart: 1 500 000 x 10 passed both
    # (1.13 GB of rows, 3.6 GB of paths) while holding about 4.7 GB; a plan
    # that let it through must fail here, not start that run
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_s5_rows_and_paths_share_one_budget(self, tmp_path, capsys, monkeypatch,
                                                command):
        def run_plan(plan, out_dir):
            raise AssertionError("an S5 run past the result budget was started")

        monkeypatch.setattr(cli_mod, "run_plan", run_plan)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S5\nrepetitions = 10\nreplicas = 1500000\n")
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli_main([command, "--config", str(cfg), *out]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: line 3: S5 (replicas = 1500000, repetitions = 10) passes the "
            "result budget: 15000000 rows at 75 bytes and one repetition's paths at "
            "2400 bytes a replica need 4725000000 bytes")
        assert not (tmp_path / "out").exists()
        cfg.write_text("scenario = S5\nrepetitions = 1\nreplicas = 1000000\n")
        assert cli_main(["validate", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("levels", [20, 21])
    def test_s3_levels_at_the_jump_budget(self, tmp_path, capsys, levels):
        # atom codes change how many paths fill a chunk, never which documents
        # pass: 2**(levels + 1) - 2 expected jumps per path against 4 000 000
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = S3\nreplicas = 1000\n[measure.family]\n"
                       f"levels = {levels}\n")
        code = cli_main(["validate", "--config", str(cfg)])
        err = capsys.readouterr().err
        if levels == 20:
            assert code == 0 and err == ""
        else:
            assert code == 1
            assert err.startswith("config error: line 4: ") and "chunk budget" in err
            assert "rate 4.1943e+06" in err

    @pytest.mark.parametrize("text,failed_rows,conjugacy_diverged", [
        # config 2's proportional solve and one conjugacy solve diverge
        ("scenario = S6\nseed = 707\nreplicas = 5\nhorizon = 40\n", [2], True),
        ("scenario = S2\nseed = 5\nreplicas = 4\nhorizon = 2000\n", [1, 2, 3], False)])
    def test_diverging_replicas_do_not_abort_the_run(self, tmp_path, capsys, text,
                                                      failed_rows, conjugacy_diverged):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        n = len((out / "samples.csv").read_text().splitlines()) - 1
        assert code == 2
        assert capsys.readouterr().err == \
            f"numeric failures in {len(failed_rows)} of {n} replicas\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_replicas"] == failed_rows
        assert (out / "plots" / "histogram.gp").exists()
        if conjugacy_diverged:
            assert summary["diagnostics"]["conjugacy_worst"] is None
            assert summary["diagnostics"]["conjugacy_pass"] is False

    # a drift of 100 (1 + x^2) blows up long before the horizon, so no replica
    # leaves a finite sample for the atom detection, lattice and KS diagnostics
    # (S5 counts each repetition whose KS test could not run as skipped)
    @pytest.mark.parametrize("scenario,extra,nulls,verdicts,counts", [
        ("S1", "", ["atom_detected", "atom_location", "window"],
         ["location_within_window", "mass_within_3se"], {}),
        ("S3", "", ["atoms_detected_x", "lattice_concentration_x"],
         ["regularization_pass"], {}),
        ("S4", "", ["lattice_concentration_x_shifted"], ["no_regularization_pass"], {}),
        ("S5", "repetitions = 2\n", [], ["invariance_pass", "monotonicity_pass"],
         {"ks_skipped": 2, "ks_passes": 0}),
        ("S7", "", ["ks_statistic", "max_pathwise_gap"], ["equivalence_pass"], {})])
    def test_diagnostics_below_the_sample_floor_do_not_abort_the_run(
            self, tmp_path, capsys, scenario, extra, nulls, verdicts, counts):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = {scenario}\nreplicas = 1000\n{extra}"
                       "[drift_field]\nname = arctan-diffusion\namplitude = 100\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        rows = (out / "samples.csv").read_text().splitlines()[1:]
        assert code == 2
        assert capsys.readouterr().err == \
            f"numeric failures in {len(rows)} of {len(rows)} replicas\n"
        assert all(row.endswith(",1") for row in rows)
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert all(diagnostics[key] is None for key in nulls)
        assert all(diagnostics[key] is False for key in verdicts)
        assert {key: diagnostics[key] for key in counts} == counts

    # the driver's lattice diagnostic does not depend on the solution, so a
    # diverging solution leaves it to every finite terminal_z
    @pytest.mark.parametrize("scenario,extra", [("S3", "[measure.family]\nlevels = 8\n"),
                                                ("S4", "")])
    def test_driver_diagnostic_survives_a_diverging_solution(self, tmp_path, capsys,
                                                            scenario, extra):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = {scenario}\nreplicas = 1000\n{extra}"
                       "[drift_field]\nname = arctan-diffusion\namplitude = 100\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        capsys.readouterr()
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert diagnostics["lattice_concentration_z"] == 1.0
