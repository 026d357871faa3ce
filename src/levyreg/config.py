"""Line-based scenario configuration grammar.

Documents look like::

    # comment
    scenario = S1
    replicas = 100000

    [triplet]
    drift = 0.3

    [measure.atom.1]
    size = 1.0
    rate = 2.0

    [drift_field]
    name = logistic-slope
    low = 0.0
    high = 1.0

`_SCALARS` declares each key but the atoms and the field sections once: its
type, range check and the field it sets. A scenario reads GLOBAL_FIELDS and
the fields SCENARIO_DEFAULTS lists for it, and a key it leaves None takes
that value (with_scenario_defaults), so a minimal document is just
`scenario = S1`.

Unknown keys are errors (with line numbers), and so is a key or section whose
field the document's scenario does not read. Duplicate keys are errors naming
both lines, and range violations are errors naming the key. The CLI reads a
document as UTF-8; a byte that is not UTF-8 is an error naming its line
(decode_config).

plan_run is the one door to a run: plan_document (and so parse_config) and
scenarios.run_scenario go through it, and it alone fills in defaults, refuses
a run and builds the laws the run samples (a RunPlan). It refuses, in this
order, a replica count below a scenario's sample floor, past rng's 2^48
replica streams or with more samples.csv rows than MAX_RESULT_BYTES holds;
an S5 run whose rows and one repetition's paths (S5_BYTES_PER_REPLICA a
replica) together pass it; a grid past path_sampler's CHUNK_BYTES; an S2 or
S6 horizon too short for its jumps; a jump law that expects more jumps per
path than one chunk holds; an atom that the config gives (not a scenario
default) below truncation, which the run would drop; an empty marked window;
an S2 horizon or an S5 marked window too rare for its draw cap; and lattice
tubes that overlap. Its PlanError names the fields at fault (an atom's is
"measure.atom.i", i its place in the measure): plan_document reports a
`--seed` or `--replicas` override among them, or else the last line that
sets one of them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .diagnostics import MIN_SAMPLES, lattice_tube_error
from .fields import canonical_params, catalogue_names
from .levy_spec import (
    DensityForm,
    FiniteAtomic,
    JumpMeasureSpec,
    LevyTriplet,
    dyadic_family,
    sparse_family,
    total_rate,
)
from .path_sampler import (
    CHUNK_BYTES,
    MAX_DRAWS,
    MAX_RESULT_BYTES,
    RESULT_BYTES_PER_ROW,
    S5_BYTES_PER_REPLICA,
    PathLaw,
    jump_budget_error,
    mark_window_error,
    marked_rate,
    path_law,
)
from .rng import TAG_BAND, RngStream

#: Scenarios whose atom detection or KS test needs MIN_SAMPLES replicas.
_FLOORED = ("S1", "S3", "S5", "S7")

#: S6 places its test paths' jumps at least this far from both ends of the
#: horizon, so its horizon must exceed twice the margin.
S6_JUMP_MARGIN = 0.05

#: S2 draws each config's driver as one atom of rate S2_JUMP_RATE and
#: differentiates at its first jump, which must lie at least S2_JUMP_MARGIN
#: from both ends of the horizon and have another jump after it; a config
#: gives up after S2_MAX_DRAWS paths.
S2_JUMP_MARGIN = 0.02
S2_JUMP_RATE = 5.0
S2_MAX_DRAWS = 300

_JUMP_MARGINS = {"S2": S2_JUMP_MARGIN, "S6": S6_JUMP_MARGIN}


class ConfigError(ValueError):
    """Configuration document rejected; message carries line context."""


class PlanError(ConfigError):
    """A run that plan_run refuses: `fields` are the config fields its reason
    belongs to (a measure's levels are "measure.levels")."""

    def __init__(self, reason: str, fields: tuple[str, ...]):
        super().__init__(reason)
        self.fields = fields


@dataclass(frozen=True)
class FieldChoice:
    name: str
    params: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MeasureChoice:
    """One of: explicit atoms, a named family, or a power-law density."""

    kind: str                      # "atoms" | "family" | "density"
    atoms: tuple[tuple[float, float], ...] = ()
    family: str = "dyadic"         # "dyadic" | "sparse"
    levels: int = 12
    sign: float = 1.0
    rate_scale: float = 1.0
    power: float = 1.5
    abs_max: float = 1.0
    two_sided: bool = True

    def build(self) -> JumpMeasureSpec:
        if self.kind == "atoms":
            return FiniteAtomic(self.atoms)
        if self.kind == "family":
            if self.family == "dyadic":
                return dyadic_family(self.levels, sign=self.sign,
                                     rate_scale=self.rate_scale)
            if self.family == "sparse":
                return sparse_family(self.levels, sign=self.sign,
                                     rate=self.rate_scale)
            raise ConfigError(f"unknown family kind {self.family!r}")
        if self.kind == "density":
            p = self.power
            return DensityForm(intensity=lambda z: abs(z) ** (-p),
                               abs_max=self.abs_max, two_sided=self.two_sided)
        raise ConfigError(f"unknown measure kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario parameters; None takes the value in SCENARIO_DEFAULTS."""

    scenario: str
    replicas: int | None = None
    seed: int = 2024
    threads: int = 1
    horizon: float = 1.0
    x0: float | None = None
    cells: int | None = None
    truncation: float | None = None
    compensate: bool | None = None
    repetitions: int | None = None
    trend_levels: tuple[int, ...] | None = None
    drift: float | None = None
    brownian_variance: float | None = None
    measure: MeasureChoice | None = None
    drift_field: FieldChoice | None = None
    diffusion_field: FieldChoice | None = None
    window: float | None = None
    threshold: float | None = None
    spacing: float | None = None
    halfwidth: float | None = None
    mark_low: float | None = None
    mark_high: float | None = None


#: Most levels of a family: 2^±levels stays a finite, normal float.
_MAX_LEVELS = 1022


#: (section, key) -> (type, range check, field set): a ScenarioConfig field,
#: or a MeasureChoice field for the [measure.family] and [measure.density]
#: keys. serialize_config writes the keys of each section in this order.
_SCALARS = {
    ("", "scenario"): ("str", None, "scenario"),
    ("", "replicas"): ("int", lambda v: v >= 1, "replicas"),
    ("", "seed"): ("int", lambda v: v >= 0, "seed"),
    ("", "threads"): ("int", lambda v: v >= 1, "threads"),
    ("", "horizon"): ("float", lambda v: v > 0.0, "horizon"),
    ("", "x0"): ("float", None, "x0"),
    ("", "cells"): ("int", lambda v: v >= 1, "cells"),
    ("", "truncation"): ("float", lambda v: v > 0.0, "truncation"),
    ("", "compensate"): ("bool", None, "compensate"),
    ("", "repetitions"): ("int", lambda v: v >= 1, "repetitions"),
    ("", "trend_levels"): ("intlist",
                           lambda vs: vs and all(1 <= v <= _MAX_LEVELS for v in vs),
                           "trend_levels"),
    ("triplet", "drift"): ("float", None, "drift"),
    ("triplet", "brownian_variance"): ("float", lambda v: v >= 0.0, "brownian_variance"),
    ("measure.family", "kind"): ("str", lambda v: v in ("dyadic", "sparse"), "family"),
    ("measure.family", "levels"): ("int", lambda v: 1 <= v <= _MAX_LEVELS, "levels"),
    ("measure.family", "sign"): ("float", lambda v: v != 0.0, "sign"),
    ("measure.family", "rate_scale"): ("float", lambda v: v > 0.0, "rate_scale"),
    ("measure.density", "power"): ("float", lambda v: v > 0.0, "power"),
    ("measure.density", "abs_max"): ("float", lambda v: v > 0.0, "abs_max"),
    ("measure.density", "two_sided"): ("bool", None, "two_sided"),
    ("diagnostics", "window"): ("float", lambda v: v > 0.0, "window"),
    ("diagnostics", "threshold"): ("float", lambda v: 0.0 < v < 1.0, "threshold"),
    ("diagnostics", "spacing"): ("float", lambda v: v > 0.0, "spacing"),
    ("diagnostics", "halfwidth"): ("float", lambda v: v > 0.0, "halfwidth"),
    ("diagnostics", "mark_low"): ("float", lambda v: v > 0.0, "mark_low"),
    ("diagnostics", "mark_high"): ("float", lambda v: v > 0.0, "mark_high"),
}


def _dyadic_lattice(config: ScenarioConfig) -> float:
    """2^-levels of the config's measure: S3's truncation and lattice spacing.
    A measure that is not a family has MeasureChoice's default 12 levels."""
    return 2.0 ** (-config.measure.levels)


#: The ScenarioConfig fields every scenario reads; each has a dataclass default.
GLOBAL_FIELDS = ("scenario", "seed", "threads", "horizon")

#: Each scenario's value for every other ScenarioConfig field it reads: the
#: fields it does not list are refused. A callable derives the value from the
#: config with the constants filled in. `window` and `threshold` stay None:
#: the atom detection derives them from the sample.
SCENARIO_DEFAULTS: dict[str, dict[str, object]] = {
    "S1": {"replicas": 100_000, "cells": 256, "x0": 0.0, "truncation": 0.5,
           "compensate": False, "drift": 0.3, "brownian_variance": 0.0,
           "measure": MeasureChoice(kind="atoms", atoms=((1.0, 2.0),)),
           "drift_field": FieldChoice("logistic-slope", {
               "low": 0.0, "high": 1.0, "rate": 1.2, "center": 0.5}),
           "window": None, "threshold": None},
    "S2": {"replicas": 100, "cells": 512},
    "S3": {"replicas": 10_000, "cells": 256, "x0": 0.0, "truncation": _dyadic_lattice,
           "compensate": False, "trend_levels": (), "drift": 0.0,
           "brownian_variance": 0.0,
           "measure": MeasureChoice(kind="family", family="dyadic", levels=12),
           "drift_field": FieldChoice("logistic-slope", {
               "low": 0.0, "high": 1.0, "rate": 1.0, "center": 12.0}),
           "window": None, "threshold": None,
           "spacing": _dyadic_lattice, "halfwidth": 1e-9},
    "S4": {"replicas": 10_000, "cells": 256, "x0": 0.0, "truncation": 2.0 ** -12,
           "compensate": False, "drift": 0.0, "brownian_variance": 0.0,
           "measure": MeasureChoice(kind="family", family="sparse", levels=12,
                                    sign=-1.0, rate_scale=1.0),
           "drift_field": FieldChoice("constant", {"level": 0.1}),
           "spacing": 2.0 ** -12, "halfwidth": 1e-9},
    "S5": {"replicas": 1000, "repetitions": 100, "cells": 256, "x0": 0.0,
           "truncation": 0.1, "compensate": False, "drift": 0.05,
           "brownian_variance": 0.0,
           "measure": MeasureChoice(kind="atoms", atoms=((0.3, 8.0),)),
           "drift_field": FieldChoice("logistic-slope", {
               "low": 0.0, "high": 1.0, "rate": 1.5, "center": 0.2}),
           "mark_low": 0.1, "mark_high": 0.5},
    "S6": {"replicas": 50, "cells": 256},
    "S7": {"replicas": 10_000, "cells": 128, "x0": 0.2, "truncation": 0.1,
           "compensate": False, "drift": 0.1, "brownian_variance": 0.3,
           "measure": MeasureChoice(kind="atoms", atoms=((0.35, 2.0),)),
           "drift_field": FieldChoice("logistic-slope", {
               "low": 0.0, "high": 0.5, "rate": 1.0, "center": 0.0}),
           "diffusion_field": FieldChoice("logistic-slope", {
               "low": 0.8, "high": 1.6, "rate": 0.9, "center": 0.0})},
}


def fields_read(scenario: str) -> set[str]:
    """The ScenarioConfig fields `scenario` reads; parse_config refuses the rest."""
    return {*GLOBAL_FIELDS, *SCENARIO_DEFAULTS[scenario]}


def with_scenario_defaults(config: ScenarioConfig) -> ScenarioConfig:
    """config with each field it leaves None set from SCENARIO_DEFAULTS."""
    unset = {key: value for key, value in SCENARIO_DEFAULTS[config.scenario].items()
             if getattr(config, key) is None}
    config = replace(config, **{k: v for k, v in unset.items() if not callable(v)})
    return replace(config, **{k: v(config) for k, v in unset.items() if callable(v)})


_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
#: an atom index has at most 9 digits: int() raises past 4300
_ATOM_RE = re.compile(r"^measure\.atom\.(\d{1,9})$")


def _parse_value(kind: str, raw: str, key: str, line_no: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError("not finite")
            return v
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError("not a boolean")
        if kind == "intlist":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(
            f"line {line_no}: cannot parse {key} = {raw!r} ({exc})") from exc


def _field_choice(section: str, row: dict[str, object], line_no: int) -> FieldChoice:
    params = dict(row)
    name = params.pop("name", None)
    if name is None:
        raise ConfigError(f"line {line_no}: [{section}] needs a 'name' key")
    # parse_config has rejected every key the named field lacks
    return FieldChoice(name=name, params=canonical_params(name, params))


def decode_config(data: bytes) -> str:
    """A configuration file's bytes as UTF-8 text; a byte that is not UTF-8
    is a ConfigError on its line, numbered as parse_config numbers lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; "?" stands in for it
        line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ConfigError(f"line {line_no}: the file is not UTF-8 "
                          f"(byte 0x{data[exc.start]:02x})") from None


def plan_document(text: str, *, seed: int | None = None,
                  replicas: int | None = None) -> tuple[ScenarioConfig, RunPlan]:
    """(the document's config, the plan of its run with `seed` and `replicas`
    overriding the document's): the overrides pass the same range checks as
    the document's keys, and the run is planned once."""
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = ""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
            atom_m = _ATOM_RE.match(section)
            if atom_m:  # [measure.atom.01] is atom 1: a duplicate key of [measure.atom.1]
                section = f"measure.atom.{int(atom_m.group(1))}"
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not key or not raw_value:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        full = (section, key)
        if full in entries:
            raise ConfigError(
                f"duplicate key {key!r} in section [{section or 'global'}]: "
                f"lines {entries[full][1]} and {line_no}")
        entries[full] = (raw_value, line_no)

    if ("", "scenario") not in entries:
        raise ConfigError("missing required key 'scenario'")
    scenario, scenario_line = entries[("", "scenario")]
    if scenario not in SCENARIO_DEFAULTS:
        raise ConfigError(f"line {scenario_line}: unknown scenario id {scenario!r}; "
                          f"choose from {', '.join(SCENARIO_DEFAULTS)}")
    reads = fields_read(scenario)

    def refuse_unread(target: str, what: str, line_no: int) -> None:
        if target not in reads:
            raise ConfigError(f"line {line_no}: scenario {scenario} does not read {what}")

    values: dict[str, object] = {}
    measure_rows: dict[str, dict[str, object]] = {}
    atom_rows: dict[int, dict[str, float]] = {}
    field_rows: dict[str, dict[str, object]] = {}
    first_line: dict[str, int] = {}   # a section, or a measure kind: its first key line
    set_on: dict[str, int] = {}       # a PlanError field: the last line that sets it
    for (section, key), (raw_value, line_no) in entries.items():
        head = section.partition(".")[0]
        if head in ("measure", "drift_field", "diffusion_field"):
            refuse_unread(head, f"[{section}]", line_no)
        atom_m = _ATOM_RE.match(section)
        if atom_m:
            if key not in ("size", "rate"):
                raise ConfigError(f"line {line_no}: unknown key {key!r} in [{section}]")
            idx = int(atom_m.group(1))
            set_on["measure"] = line_no
            first_line.setdefault(section, line_no)
            first_line.setdefault("atoms", line_no)
            atom_rows.setdefault(idx, {})[key] = \
                _parse_value("float", raw_value, key, line_no)
            continue
        first_line.setdefault(section.removeprefix("measure."), line_no)
        if section in ("drift_field", "diffusion_field"):
            name = entries.get((section, "name"), ("",))[0]
            if name not in catalogue_names():
                if key == "name":
                    raise ConfigError(f"line {line_no}: unknown field name {name!r}; "
                                      f"choose from {catalogue_names()}")
            elif key != "name" and key not in canonical_params(name):
                raise ConfigError(f"line {line_no}: unknown key {key!r} in [{section}] "
                                  f"for field {name!r}")
            set_on[section] = line_no
            field_rows.setdefault(section, {})[key] = raw_value if key == "name" \
                else _parse_value("float", raw_value, key, line_no)
            continue
        if (section, key) not in _SCALARS:
            where = f"section [{section}]" if section else "the global section"
            raise ConfigError(f"line {line_no}: unknown key {key!r} in {where}")
        kind, check, target = _SCALARS[(section, key)]
        if head != "measure":   # a measure key was checked with its section
            refuse_unread(target, f"{key!r} in [{section}]" if section else repr(key),
                          line_no)
        value = _parse_value(kind, raw_value, key, line_no)
        if check is not None and not check(value):
            raise ConfigError(f"line {line_no}: value out of range for {key!r}: {raw_value}")
        if section.startswith("measure."):
            measure_rows.setdefault(section.partition(".")[2], {})[target] = value
            set_on["measure"] = set_on[f"measure.{target}"] = line_no
        else:
            values[target] = value
            set_on[target] = line_no

    for i, idx in enumerate(sorted(atom_rows)):   # atom i of the measure
        if set(atom_rows[idx]) != {"size", "rate"}:
            raise ConfigError(f"line {first_line[f'measure.atom.{idx}']}: "
                              f"[measure.atom.{idx}] needs both size and rate")
        set_on[f"measure.atom.{i}"] = entries[(f"measure.atom.{idx}", "size")][1]
    if atom_rows:
        measure_rows["atoms"] = {"atoms": tuple(
            (atom_rows[i]["size"], atom_rows[i]["rate"]) for i in sorted(atom_rows))}
    if len(measure_rows) > 1:
        second = sorted(first_line[kind] for kind in measure_rows)[1]
        raise ConfigError(f"line {second}: give at most one of [measure.atom.*], "
                          "[measure.family], [measure.density]")
    for kind, row in measure_rows.items():
        values["measure"] = MeasureChoice(kind=kind, **row)
    for section, row in field_rows.items():
        values[section] = _field_choice(section, row, first_line[section])
    config = ScenarioConfig(**values)
    overrides = {key: value for key, value in (("seed", seed), ("replicas", replicas))
                 if value is not None}
    for key, value in overrides.items():
        if not _SCALARS[("", key)][1](value):
            raise ConfigError(f"override out of range for {key!r}: {value}")
    try:
        return config, plan_run(replace(config, **overrides))
    except PlanError as exc:
        if overrides.keys() & set(exc.fields):
            raise ConfigError(f"override {exc}") from None
        line_no = max((set_on[f] for f in exc.fields if f in set_on),
                      default=scenario_line)
        raise ConfigError(f"line {line_no}: {exc}") from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse a configuration document into a validated ScenarioConfig."""
    return plan_document(text)[0]


@dataclass(frozen=True)
class RunPlan:
    """A run that may go ahead: its config with the defaults filled in, and the
    (law, first replica stream id) of its driver, then of each S3 trend level
    (none in S2 and S6, which draw a law per replica)."""

    config: ScenarioConfig
    laws: tuple[tuple[PathLaw, int], ...]


def plan_run(config: ScenarioConfig) -> RunPlan:
    """config's run, its defaults filled in and its laws built, or a
    PlanError for the first check it fails, in the module docstring's order.
    Replica stream ids past rng.TAG_BAND would share streams with child draws."""
    c = with_scenario_defaults(config)
    scenario, n, defaults = c.scenario, c.replicas, SCENARIO_DEFAULTS[config.scenario]

    def refuse(reason: str | None, *fields: str) -> None:
        if reason is not None:
            raise PlanError(reason, fields)

    if scenario in _FLOORED and n < MIN_SAMPLES:
        refuse(f"replicas = {n} is below the {MIN_SAMPLES} samples that "
               f"{scenario}'s diagnostics need", "replicas")
    rows = n * (c.repetitions if scenario == "S5" else 1)
    if rows > TAG_BAND:
        refuse(f"replicas = {n} reuses random streams: a run draws from at most "
               f"2^48 replica streams, and this one needs {rows}", "replicas")
    if rows * RESULT_BYTES_PER_ROW > MAX_RESULT_BYTES:
        what = "replicas x repetitions" if scenario == "S5" else "replicas"
        refuse(f"{rows} samples.csv rows ({what}) pass the result budget: "
               f"{MAX_RESULT_BYTES} bytes hold {MAX_RESULT_BYTES // RESULT_BYTES_PER_ROW} "
               f"at {RESULT_BYTES_PER_ROW} bytes a row", "replicas", "repetitions")
    held = rows * RESULT_BYTES_PER_ROW + n * S5_BYTES_PER_REPLICA
    if scenario == "S5" and held > MAX_RESULT_BYTES:
        refuse(f"S5 (replicas = {n}, repetitions = {c.repetitions}) passes the result "
               f"budget: {rows} rows at {RESULT_BYTES_PER_ROW} bytes and one "
               f"repetition's paths at {S5_BYTES_PER_REPLICA} bytes a replica need "
               f"{held} bytes, and it holds {MAX_RESULT_BYTES}", "replicas", "repetitions")
    if 8 * (c.cells + 1) > CHUNK_BYTES:   # one path's cell edges
        refuse(f"cell edges per path (cells {c.cells} + 1, 8 bytes each) exceed "
               f"the chunk budget of {CHUNK_BYTES} bytes", "cells")
    margin = _JUMP_MARGINS.get(scenario, 0.0)
    if c.horizon <= 2 * margin:
        refuse(f"horizon = {c.horizon} leaves {scenario} no room for its jumps, which "
               f"it keeps at least {margin} from both ends: need horizon > {2 * margin}",
               "horizon")
    if scenario == "S2":
        refuse(jump_budget_error(S2_JUMP_RATE, c.horizon), "horizon")
    laws = []
    if "measure" in defaults:
        # the driver, then S3's trend level lv: the lv-level dyadic family above 2^-lv
        levels = [(c.measure, c.truncation, 0, ("measure", "truncation", "horizon"))] + [
            (MeasureChoice(kind="family", levels=lv), 2.0 ** -lv,
             RngStream(c.seed).child(lv).stream_id, ("trend_levels",))
            for lv in c.trend_levels or ()]
        for measure, truncation, first_stream, fields in levels:
            try:
                spec = measure.build()
                rate = total_rate(spec, truncation)
                reason = jump_budget_error(rate, c.horizon)
                if reason is None:
                    laws.append((path_law(LevyTriplet(c.drift, spec, c.brownian_variance),
                                          c.horizon, truncation, c.compensate, c.cells,
                                          rate=rate), first_stream))
            except (ValueError, ArithmeticError) as exc:
                reason = f"cannot compute the jump rate: {exc}"
            refuse(reason, *fields)
    if config.measure is not None and config.measure.kind == "atoms":
        for i, (size, _) in enumerate(config.measure.atoms):
            if abs(size) < c.truncation:
                refuse(f"atom size = {size} is below truncation = {c.truncation}: "
                       "the run would drop it", f"measure.atom.{i}", "truncation")
    if "mark_low" in defaults:
        refuse(mark_window_error(c.mark_low, c.mark_high), "mark_low", "mark_high")
    # S2 redraws a config's path, S5 a replica's, until one is usable, up to a
    # cap; either is refused where some row may miss every draw with
    # probability above 1e-9: (chance a draw misses, cap, what is missed)
    cap, cap_fields = None, ("measure", "truncation", "horizon", "mark_low",
                             "mark_high", "replicas", "repetitions")
    if scenario == "S2":
        # a usable draw has its first jump in [m, h - m] and another after it:
        # P = e^{-l m} - e^{-l (h - m)} - l (h - 2m) e^{-l h} at rate l. P leaves
        # out S2's jump spacing and derivative tests, so it bounds a draw's
        # chance from above and the risk from below
        rate, m, h = S2_JUMP_RATE, S2_JUMP_MARGIN, c.horizon
        hit = (math.exp(-rate * m) - math.exp(-rate * (h - m))
               - rate * (h - 2 * m) * math.exp(-rate * h))
        cap = (1.0 - hit, S2_MAX_DRAWS, f"horizon = {h:g} gives an S2 draw a chance of "
               f"at most {hit:.3g} of a first jump in [{m:g}, horizon - {m:g}] with "
               f"another after it, so {n} configs may find no such path")
    if scenario == "S5":   # a draw needs two marked jumps: it misses w.p. e^-m (1 + m)
        try:
            m = marked_rate(c.measure.build(), c.truncation, c.mark_low,
                            c.mark_high) * c.horizon
        except (ValueError, ArithmeticError) as exc:
            refuse(f"cannot compute the marked-window rate: {exc}", *cap_fields)
        cap = (math.exp(-m) * (1.0 + m), MAX_DRAWS, f"the marked window expects {m:g} "
               f"jumps per path, so {rows} replicas may find no path with two marked jumps")
    if cap is not None:
        miss, draws, what = cap
        risk = rows * miss ** draws
        if risk > 1e-9:
            refuse(f"{what} in {draws} draws (probability up to {min(risk, 1.0):.3g})",
                   *cap_fields)
    if "spacing" in defaults:
        # S3's default spacing is the lattice of its family's levels
        refuse(lattice_tube_error(c.spacing, c.halfwidth), "spacing", "halfwidth",
               *(("measure.levels",) if scenario == "S3" else ()))
    return RunPlan(c, tuple(laws))


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) == parse(text)."""
    blocks: dict[str, list[str]] = {section: [] for section in (
        "", "triplet", "measure", "drift_field", "diffusion_field", "diagnostics")}
    m = config.measure
    for (section, key), (_, _, target) in _SCALARS.items():
        owner = config
        if section.startswith("measure."):
            if m is None or section != f"measure.{m.kind}":
                continue
            owner = m
        value = getattr(owner, target)
        if value is None or value == ():
            continue
        block = blocks[section.partition(".")[0]]
        if section and not block:
            block.append(f"[{section}]")
        block.append(f"{key} = {_text(value)}")
    if m is not None and m.kind == "atoms":
        for i, (size, rate) in enumerate(m.atoms, start=1):
            blocks["measure"] += [f"[measure.atom.{i}]", f"size = {size}", f"rate = {rate}"]
    for section in ("drift_field", "diffusion_field"):
        choice = getattr(config, section)
        if choice is not None:
            blocks[section] = [f"[{section}]", f"name = {choice.name}"] + [
                f"{k} = {choice.params[k]}" for k in sorted(choice.params)]
    return "\n\n".join("\n".join(block) for block in blocks.values() if block) + "\n"
