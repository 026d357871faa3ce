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

Unknown keys are errors (with line numbers), duplicate keys are errors
naming both lines, and range violations are errors naming the key. Every
key has a documented default; a minimal document is just `scenario = S1`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .fields import canonical_params, catalogue_names
from .levy_spec import (
    DensityForm,
    FiniteAtomic,
    JumpMeasureSpec,
    dyadic_family,
    sparse_family,
)

SCENARIO_IDS = ("S1", "S2", "S3", "S4", "S5", "S6", "S7")

#: Philox stream-id offsets of the runners' independent draws: S6 takes its
#: check (b) configs from ids i and its check (c) configs from S6_STREAM_GAP
#: + i; S3 takes trend level lv from S3_TREND_STREAM_GAP * lv + i. A replica
#: count past the gap would reuse streams, so such configs are rejected.
S6_STREAM_GAP = 100_000
S3_TREND_STREAM_GAP = 10_000_000


class ConfigError(ValueError):
    """Configuration document rejected; message carries line context."""


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
    idealized_infinite: bool = True
    power: float = 1.5
    abs_max: float = 1.0
    two_sided: bool = True

    def build(self) -> JumpMeasureSpec:
        if self.kind == "atoms":
            return FiniteAtomic(self.atoms)
        if self.kind == "family":
            if self.family == "dyadic":
                return dyadic_family(self.levels, sign=self.sign,
                                     rate_scale=self.rate_scale,
                                     idealized_infinite=self.idealized_infinite)
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
    """Parsed scenario parameters; None means 'use the scenario default'."""

    scenario: str
    replicas: int | None = None
    seed: int = 2024
    threads: int = 1
    horizon: float = 1.0
    x0: float | None = None
    cells: int | None = None
    truncation: float | None = None
    compensate: bool = False
    repetitions: int | None = None
    trend_levels: tuple[int, ...] = ()
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
    out_dir: str | None = None


_FIELD_PARAM_KEYS = {"level", "slope", "intercept", "low", "high", "rate",
                     "center", "amplitude", "curvature"}

_SCALARS = {
    ("", "scenario"): ("str", None),
    ("", "replicas"): ("int", lambda v: v >= 1),
    ("", "seed"): ("int", lambda v: v >= 0),
    ("", "threads"): ("int", lambda v: v >= 1),
    ("", "horizon"): ("float", lambda v: v > 0.0),
    ("", "x0"): ("float", None),
    ("", "cells"): ("int", lambda v: v >= 1),
    ("", "truncation"): ("float", lambda v: v > 0.0),
    ("", "compensate"): ("bool", None),
    ("", "repetitions"): ("int", lambda v: v >= 1),
    ("", "trend_levels"): ("intlist", lambda vs: all(v >= 1 for v in vs)),
    ("triplet", "drift"): ("float", None),
    ("triplet", "brownian_variance"): ("float", lambda v: v >= 0.0),
    ("measure.family", "kind"): ("str", None),
    ("measure.family", "levels"): ("int", lambda v: v >= 1),
    ("measure.family", "sign"): ("float", lambda v: v != 0.0),
    ("measure.family", "rate_scale"): ("float", lambda v: v > 0.0),
    ("measure.family", "idealized_infinite"): ("bool", None),
    ("measure.density", "power"): ("float", lambda v: v > 0.0),
    ("measure.density", "abs_max"): ("float", lambda v: v > 0.0),
    ("measure.density", "two_sided"): ("bool", None),
    ("diagnostics", "window"): ("float", lambda v: v > 0.0),
    ("diagnostics", "threshold"): ("float", lambda v: 0.0 < v < 1.0),
    ("diagnostics", "spacing"): ("float", lambda v: v > 0.0),
    ("diagnostics", "halfwidth"): ("float", lambda v: v > 0.0),
    ("diagnostics", "mark_low"): ("float", lambda v: v > 0.0),
    ("diagnostics", "mark_high"): ("float", lambda v: v > 0.0),
    ("output", "dir"): ("str", None),
}

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_ATOM_RE = re.compile(r"^measure\.atom\.(\d+)$")


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


def parse_config(text: str) -> ScenarioConfig:
    """Parse a configuration document into a validated ScenarioConfig."""
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = ""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
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

    values: dict[tuple[str, str], object] = {}
    atom_rows: dict[int, dict[str, float]] = {}
    field_rows: dict[str, dict[str, object]] = {}
    for (section, key), (raw_value, line_no) in entries.items():
        atom_m = _ATOM_RE.match(section)
        if atom_m:
            if key not in ("size", "rate"):
                raise ConfigError(f"line {line_no}: unknown key {key!r} in [{section}]")
            atom_rows.setdefault(int(atom_m.group(1)), {})[key] = \
                _parse_value("float", raw_value, key, line_no)
            continue
        if section in ("drift_field", "diffusion_field"):
            if key == "name":
                name = raw_value
                if name not in catalogue_names():
                    raise ConfigError(
                        f"line {line_no}: unknown field name {name!r}; "
                        f"choose from {catalogue_names()}")
                field_rows.setdefault(section, {})["name"] = name
            elif key in _FIELD_PARAM_KEYS:
                field_rows.setdefault(section, {}).setdefault("params", {})[key] = \
                    _parse_value("float", raw_value, key, line_no)
            else:
                raise ConfigError(f"line {line_no}: unknown key {key!r} in [{section}]")
            continue
        if (section, key) not in _SCALARS:
            where = f"section [{section}]" if section else "the global section"
            raise ConfigError(f"line {line_no}: unknown key {key!r} in {where}")
        kind, check = _SCALARS[(section, key)]
        value = _parse_value(kind, raw_value, key, line_no)
        if check is not None and not check(value):
            raise ConfigError(f"line {line_no}: value out of range for {key!r}: {raw_value}")
        values[(section, key)] = value

    if ("", "scenario") not in values:
        raise ConfigError("missing required key 'scenario'")
    scenario = str(values[("", "scenario")])
    if scenario not in SCENARIO_IDS:
        raise ConfigError(
            f"unknown scenario id {scenario!r}; choose from {', '.join(SCENARIO_IDS)}")

    measure = None
    if atom_rows:
        for idx in sorted(atom_rows):
            row = atom_rows[idx]
            if set(row) != {"size", "rate"}:
                raise ConfigError(f"[measure.atom.{idx}] needs both size and rate")
        measure = MeasureChoice(kind="atoms", atoms=tuple(
            (atom_rows[i]["size"], atom_rows[i]["rate"]) for i in sorted(atom_rows)))
    fam_keys = {k for (s, k) in values if s == "measure.family"}
    den_keys = {k for (s, k) in values if s == "measure.density"}
    if sum(map(bool, (atom_rows, fam_keys, den_keys))) > 1:
        raise ConfigError("give at most one of [measure.atom.*], [measure.family], "
                          "[measure.density]")
    if fam_keys:
        measure = MeasureChoice(
            kind="family",
            family=str(values.get(("measure.family", "kind"), "dyadic")),
            levels=int(values.get(("measure.family", "levels"), 12)),
            sign=float(values.get(("measure.family", "sign"), 1.0)),
            rate_scale=float(values.get(("measure.family", "rate_scale"), 1.0)),
            idealized_infinite=bool(values.get(("measure.family", "idealized_infinite"),
                                               True)))
        if measure.family not in ("dyadic", "sparse"):
            raise ConfigError(f"unknown family kind {measure.family!r}")
    if den_keys:
        measure = MeasureChoice(
            kind="density",
            power=float(values.get(("measure.density", "power"), 1.5)),
            abs_max=float(values.get(("measure.density", "abs_max"), 1.0)),
            two_sided=bool(values.get(("measure.density", "two_sided"), True)))

    def _field_choice(section: str) -> FieldChoice | None:
        row = field_rows.get(section)
        if row is None:
            return None
        if "name" not in row:
            raise ConfigError(f"[{section}] needs a 'name' key")
        name = str(row["name"])
        params = dict(row.get("params", {}))
        try:
            params = canonical_params(name, params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return FieldChoice(name=name, params=params)

    config = ScenarioConfig(
        scenario=scenario,
        replicas=values.get(("", "replicas")),
        seed=int(values.get(("", "seed"), 2024)),
        threads=int(values.get(("", "threads"), 1)),
        horizon=float(values.get(("", "horizon"), 1.0)),
        x0=values.get(("", "x0")),
        cells=values.get(("", "cells")),
        truncation=values.get(("", "truncation")),
        compensate=bool(values.get(("", "compensate"), False)),
        repetitions=values.get(("", "repetitions")),
        trend_levels=tuple(values.get(("", "trend_levels"), ())),
        drift=values.get(("triplet", "drift")),
        brownian_variance=values.get(("triplet", "brownian_variance")),
        measure=measure,
        drift_field=_field_choice("drift_field"),
        diffusion_field=_field_choice("diffusion_field"),
        window=values.get(("diagnostics", "window")),
        threshold=values.get(("diagnostics", "threshold")),
        spacing=values.get(("diagnostics", "spacing")),
        halfwidth=values.get(("diagnostics", "halfwidth")),
        mark_low=values.get(("diagnostics", "mark_low")),
        mark_high=values.get(("diagnostics", "mark_high")),
        out_dir=values.get(("output", "dir")),
    )
    reason = _stream_collision(config)
    if reason is not None:
        raise ConfigError(f"line {entries[('', 'replicas')][1]}: {reason}")
    return config


def _stream_collision(config: ScenarioConfig) -> str | None:
    """Why config's replica count would make draws meant to be independent
    share Philox streams, or None."""
    n = config.replicas
    if n is None:
        return None
    if config.scenario == "S6" and n > S6_STREAM_GAP:
        return (f"replicas = {n} reuses random streams: S6 draws from stream ids "
                f"i and {S6_STREAM_GAP} + i, so at most {S6_STREAM_GAP} replicas")
    if config.scenario == "S3" and config.trend_levels and n > S3_TREND_STREAM_GAP:
        return (f"replicas = {n} reuses random streams: S3 with trend_levels draws "
                f"from stream ids i and {S3_TREND_STREAM_GAP} * level + i, so at "
                f"most {S3_TREND_STREAM_GAP} replicas")
    return None


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) == parse(text)."""
    lines = [f"scenario = {config.scenario}"]

    def emit(key, value):
        if value is None:
            return
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")

    emit("replicas", config.replicas)
    emit("seed", config.seed)
    emit("threads", config.threads)
    emit("horizon", config.horizon)
    emit("x0", config.x0)
    emit("cells", config.cells)
    emit("truncation", config.truncation)
    emit("compensate", config.compensate)
    emit("repetitions", config.repetitions)
    if config.trend_levels:
        emit("trend_levels", ",".join(str(v) for v in config.trend_levels))
    if config.drift is not None or config.brownian_variance is not None:
        lines.append("")
        lines.append("[triplet]")
        emit("drift", config.drift)
        emit("brownian_variance", config.brownian_variance)
    m = config.measure
    if m is not None:
        lines.append("")
        if m.kind == "atoms":
            for i, (size, rate) in enumerate(m.atoms, start=1):
                lines.append(f"[measure.atom.{i}]")
                emit("size", size)
                emit("rate", rate)
        elif m.kind == "family":
            lines.append("[measure.family]")
            emit("kind", m.family)
            emit("levels", m.levels)
            emit("sign", m.sign)
            emit("rate_scale", m.rate_scale)
            emit("idealized_infinite", m.idealized_infinite)
        else:
            lines.append("[measure.density]")
            emit("power", m.power)
            emit("abs_max", m.abs_max)
            emit("two_sided", m.two_sided)
    for section, choice in (("drift_field", config.drift_field),
                            ("diffusion_field", config.diffusion_field)):
        if choice is not None:
            lines.append("")
            lines.append(f"[{section}]")
            emit("name", choice.name)
            for k in sorted(choice.params):
                emit(k, choice.params[k])
    diag = [("window", config.window), ("threshold", config.threshold),
            ("spacing", config.spacing), ("halfwidth", config.halfwidth),
            ("mark_low", config.mark_low), ("mark_high", config.mark_high)]
    if any(v is not None for _, v in diag):
        lines.append("")
        lines.append("[diagnostics]")
        for k, v in diag:
            emit(k, v)
    if config.out_dir is not None:
        lines.append("")
        lines.append("[output]")
        emit("dir", config.out_dir)
    return "\n".join(lines) + "\n"


def with_overrides(config: ScenarioConfig, *, seed: int | None = None,
                   replicas: int | None = None, threads: int | None = None,
                   out_dir: str | None = None) -> ScenarioConfig:
    """config with the given keys replaced; numeric overrides pass the same
    range and stream-collision checks as the document's keys."""
    updates = {key: value for key, value in (("seed", seed), ("replicas", replicas),
                                             ("threads", threads), ("out_dir", out_dir))
               if value is not None}
    for key, value in updates.items():
        check = _SCALARS.get(("", key), (None, None))[1]
        if check is not None and not check(value):
            raise ConfigError(f"override out of range for {key!r}: {value}")
    updated = replace(config, **updates) if updates else config
    reason = _stream_collision(updated)
    if reason is not None:
        raise ConfigError(f"override {reason}")
    return updated
