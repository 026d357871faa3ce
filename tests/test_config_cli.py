import json
import warnings

import numpy as np
import pytest

import levyreg.cli as cli_mod
import levyreg.scenarios as scenarios_mod
from levyreg import path_sampler
from levyreg.cli import main as cli_main
from levyreg.config import (
    ConfigError,
    parse_config,
    serialize_config,
    with_overrides,
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

    def test_round_trip(self):
        text = ("scenario = S5\nreplicas = 1000\nseed = 9\nthreads = 2\n"
                "repetitions = 7\n[triplet]\ndrift = 0.05\n"
                "[measure.atom.1]\nsize = 0.3\nrate = 8.0\n"
                "[drift_field]\nname = linear\nslope = 0.4\n"
                "[diagnostics]\nmark_low = 0.1\nmark_high = 0.5\n"
                "[output]\ndir = /tmp/out\n")
        config = parse_config(text)
        assert parse_config(serialize_config(config)) == config

    def test_overrides(self):
        config = parse_config("scenario = S1\nreplicas = 1000\n")
        updated = with_overrides(config, seed=5, replicas=2000, out_dir="/tmp/x")
        assert (updated.seed, updated.replicas, updated.out_dir) == (5, 2000, "/tmp/x")

    def test_threads_is_set_only_by_its_key(self):
        config = parse_config("scenario = S2\nthreads = 3\n")
        assert config.threads == 3
        with pytest.raises(TypeError):
            with_overrides(config, threads=2)
        with pytest.raises(TypeError):
            run_scenario(config, threads=2)

    @pytest.mark.parametrize("key,value", [("replicas", 0), ("seed", -1)])
    def test_override_range_error_names_key(self, key, value):
        config = parse_config("scenario = S2\n")
        with pytest.raises(ConfigError, match=repr(key)):
            with_overrides(config, **{key: value})

    @pytest.mark.parametrize("text,line", [
        # S6 checks (b) and (c) draw from stream ids i and 100000 + i
        ("scenario = S6\nreplicas = 100001\n", 2),
        # S3 trend level lv draws from stream ids 10000000 * lv + i
        ("scenario = S3\ntrend_levels = 4,6\nseed = 3\nreplicas = 10000001\n", 4)])
    def test_colliding_streams_rejected_with_line(self, text, line):
        with pytest.raises(ConfigError, match=f"^line {line}: .*reuses random streams"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "scenario = S6\nreplicas = 100000\n",
        "scenario = S3\ntrend_levels = 4\nreplicas = 10000000\n",
        "scenario = S3\nreplicas = 10000001\n",
        "scenario = S1\nreplicas = 10000001\n"])
    def test_streams_at_the_gap_are_accepted(self, text):
        config = parse_config(text)
        assert parse_config(serialize_config(config)) == config
        assert with_overrides(config, seed=1).replicas == config.replicas

    @pytest.mark.parametrize("text,replicas", [
        ("scenario = S6\n", 100_001),
        ("scenario = S3\ntrend_levels = 4\n", 10_000_001)])
    def test_override_stream_collision_rejected(self, text, replicas):
        config = parse_config(text)
        assert with_overrides(config, replicas=replicas - 1).replicas == replicas - 1
        with pytest.raises(ConfigError, match="reuses random streams"):
            with_overrides(config, replicas=replicas)


class TestRunSummary:
    def test_json_round_trip(self):
        s = RunSummary(scenario="S1", seed=3, replicas=100, threads=2,
                       failed_replicas=(4, 7), wall_time_s=1.25,
                       diagnostics={"a": 1.0, "b": True, "c": [1, 2]})
        again = RunSummary.from_json(s.to_json())
        assert again == s


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
               for name in ("S1", "S4", "S7")}
    # a compensated density, about 122.5 jumps per path
    CHUNKED["S1-density"] = ("scenario = S1\nseed = 9\nreplicas = 1000\n"
                             "truncation = 0.001\ncompensate = true\n"
                             "[measure.density]\npower = 1.5\n")

    # S1 and S7 expect 2 jumps per path, S4 12; one path per chunk would cost
    # S7 over a minute, so S7 gets only four chunks
    @pytest.mark.parametrize("scenario,budget,chunks", [
        ("S1", 1, [1] * 1000),
        ("S1", 600, [250] * 4),
        ("S4", 1, [1] * 1000),
        ("S4", 3600, [250] * 4),
        ("S7", 600, [250] * 4),
        ("S1-density", 30000, [200] * 5),
        ("S1", 800, [334, 333, 333])])
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
        monkeypatch.setattr(scenarios_mod, "MAX_JUMPS_PER_CHUNK", budget)
        small = run(tmp_path / "small")
        assert default[2] == [1000] and small[2] == chunks
        assert small[:2] == default[:2]

    def test_chunks_are_even(self):
        # S3 at seed 404: 488 paths per chunk made chunks of 488/488/24 rows
        assert scenarios_mod._chunk_sizes(1000, 488) == [334, 333, 333]
        for n in (1, 2, 3, 999, 1000, 1001, 10_000):
            for per_chunk in (1, 2, 7, 300, 488, 1000, 20_000):
                sizes = scenarios_mod._chunk_sizes(n, per_chunk)
                assert sum(sizes) == n and max(sizes) <= per_chunk
                assert len(sizes) == -(-n // per_chunk)
                assert max(sizes) - min(sizes) <= 1

    def test_driver_law_built_once_per_run(self, monkeypatch):
        # parsed first: validation computes the rate too
        config = parse_config(self.CHUNKED["S1-density"])
        calls = {"total_rate": 0, "_density_size_table": 0, "packed": 0}
        for module, name in ((path_sampler, "total_rate"),
                             (path_sampler, "_density_size_table"),
                             (path_sampler.PathLaw, "packed")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(scenarios_mod, "MAX_JUMPS_PER_CHUNK", 30000)
        scenarios_mod.run_s1(config)
        assert calls == {"total_rate": 1, "_density_size_table": 1, "packed": 5}

    def test_s5_driver_law_built_once_for_all_repetitions(self, monkeypatch):
        builds, decomps = [], []

        def counted(*args, _real=path_sampler.path_law, **kwargs):
            builds.append(args)
            return _real(*args, **kwargs)

        def decompose(*args, _real=scenarios_mod.decompose_first_jump):
            decomps.append(args)
            return _real(*args)

        for module in (path_sampler, scenarios_mod):
            monkeypatch.setattr(module, "path_law", counted)
        monkeypatch.setattr(scenarios_mod, "decompose_first_jump", decompose)
        config = parse_config("scenario = S5\nseed = 55\nreplicas = 1000\nrepetitions = 3\n")
        scenarios_mod.run_s5(config)
        assert len(builds) == 1
        # the monotonicity check reuses repetition 0's decompositions
        assert len(decomps) == 3 * 1000

    def test_s3_trend_laws_keep_the_brownian_part(self, monkeypatch):
        laws = []
        real = scenarios_mod._sample_and_solve

        def spy(config, law, solve, stream_offset=0):
            laws.append(law)
            return real(config, law, solve, stream_offset)

        monkeypatch.setattr(scenarios_mod, "_sample_and_solve", spy)
        config = parse_config("scenario = S3\nseed = 5\nreplicas = 1000\n"
                              "trend_levels = 3,5\n[triplet]\nbrownian_variance = 0.01\n"
                              "[measure.family]\nlevels = 6\n")
        scenarios_mod.run_s3(config)
        assert len(laws) == 3
        assert all(law.brownian_grid is not None for law in laws)
        assert all(law.brownian_sd == laws[0].brownian_sd > 0.0 for law in laws)

    def test_compensate_shifts_no_jump_terminals(self):
        # the atom (1.0, rate 2) above trunc 0.5 compensates by 2.0 per unit time
        text = "scenario = S1\nreplicas = 2000\nseed = 8\nhorizon = 1.5\n"
        plain = scenarios_mod.run_s1(parse_config(text))
        comp = scenarios_mod.run_s1(parse_config(text + "compensate = true\n"))
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

    @pytest.mark.parametrize("text,replicas", [
        ("scenario = S6\n", "100001"),
        ("scenario = S3\ntrend_levels = 4\n", "10000001")])
    def test_colliding_streams_override_exit_code(self, tmp_path, capsys, monkeypatch,
                                                  text, replicas):
        def must_not_run(config):
            raise AssertionError("a colliding config reached the runner")

        monkeypatch.setattr(cli_mod, "run_scenario", must_not_run)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg), "--out", str(out),
                         "--replicas", replicas])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: override replicas = ")
        assert "reuses random streams" in err
        assert not (out / "summary.json").exists()

    def test_huge_rate_is_rejected_before_sampling(self, tmp_path, capsys):
        # 1e12 expected jumps per path cannot fit in one chunk of packed paths
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = S1\n[measure.atom.1]\nsize = 1.0\nrate = 1e12\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 4: ") and "chunk budget" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("text,failed_rows,conjugacy_diverged", [
        # config 2's proportional solve and one conjugacy solve diverge
        ("scenario = S6\nseed = 707\nreplicas = 5\nhorizon = 20\n", [2], True),
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
