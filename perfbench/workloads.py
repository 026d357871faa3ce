"""The benchmark's workloads: one built-in scenario each, at a fixed size.

Each workload names the layer it is bound by, so a change to one layer has a
workload where it should move the end-to-end numbers and others where it
should not. Sizes are stated here and nowhere else; the seed comes from the
command line (the default is the acceptance seed from tests/test_acceptance.py).

Checks mirror tests/test_acceptance.py. The acceptance tests' own wall-time
limits are left out: time is what the benchmark measures, not what it gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    seed: int                      # acceptance seed, used when none is given
    size: dict                     # config lines at full size
    smoke: dict                    # config lines at smoke size
    why: str
    checks: object = field(repr=False)   # diagnostics, size -> [(name, slack, passed)]

    def config_text(self, seed: int, smoke: bool = False) -> str:
        """The scenario config document the run parses; always threads = 1."""
        lines = [f"scenario = {self.scenario}", f"seed = {seed}", "threads = 1"]
        sections: dict[str, list[str]] = {}
        for key, value in (self.smoke if smoke else self.size).items():
            section, _, name = key.rpartition(".")
            if section:
                sections.setdefault(section, []).append(f"{name} = {value}")
            else:
                lines.append(f"{name} = {value}")
        for section, body in sections.items():
            lines += ["", f"[{section}]", *body]
        return "\n".join(lines) + "\n"


def upper(value: float, threshold: float) -> float:
    """Relative slack of `value <= threshold`: (threshold - value) / threshold."""
    return (threshold - value) / threshold


def lower(value: float, threshold: float) -> float:
    """Relative slack of `value >= threshold`: (value - threshold) / threshold."""
    return (value - threshold) / threshold


def _s1_checks(d: dict, size: dict) -> list:
    loc = upper(abs(d["atom_location"] - d["skeleton_location"]), d["window"])
    mass = upper(abs(d["atom_mass"] - d["expected_mass"]),
                 3.0 * d["mass_standard_error"])
    return [("atom_detected", None, bool(d["atom_detected"])),
            ("location_within_window", loc, bool(d["location_within_window"])),
            ("mass_within_3se", mass, bool(d["mass_within_3se"]))]


def _s3_checks(d: dict, size: dict) -> list:
    levels = int(size.get("measure.family.levels", 12))
    rate = float(2 ** (levels + 1) - 2)
    lz = lower(d["lattice_concentration_z"], 0.999)
    lx = upper(d["lattice_concentration_x"], 0.01)
    return [("total_rate", None, d["total_rate"] == rate),
            ("lattice_concentration_z", lz, lz >= 0.0),
            ("lattice_concentration_x", lx, lx >= 0.0),
            ("no_atoms_x", None, not d["atoms_detected_x"])]


def _s6_checks(d: dict, size: dict) -> list:
    out = []
    for key, thr in (("unit_reduction_worst", 1e-10), ("proportional_worst", 1e-6),
                     ("conjugacy_worst", 1e-5), ("chain_rule_residual", 1e-5)):
        slack = upper(d[key], thr)
        out.append((key, slack, slack >= 0.0))
    coarse, fine = d["remainder_constant_coarse"], d["remainder_constant_fine"]
    rem = upper(abs(fine - coarse), 0.10 * coarse)
    out.append(("remainder_stable", rem, bool(d["remainder_stable"])))
    return out


def _s7_checks(d: dict, size: dict) -> list:
    ks = upper(d["ks_statistic"], d["ks_critical_1pct"])
    return [("ks_below_critical", ks, d["ks_statistic"] < d["ks_critical_1pct"])]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "s1-atom", "S1", 303, {"replicas": 20000}, {"replicas": 5000},
        "many tiny paths (about 2 jumps each): bound by path sampling, trivial "
        "sweep, largest samples.csv",
        _s1_checks),
    Workload(
        "s3-lattice", "S3", 404, {"replicas": 1000},
        {"replicas": 1000, "measure.family.levels": 8},
        "few huge paths (about 8190 jumps each): bound by the batch event sweep "
        "and the jump budget per chunk; the memory-heavy workload",
        _s3_checks),
    Workload(
        "s7-doss", "S7", 808, {"replicas": 1000}, {"replicas": 1000, "cells": 32},
        "Brownian skeleton, Doss and Marcus engines: bound by the array "
        "jump-flow kernel and array field evaluation",
        _s7_checks),
    Workload(
        "s6-scalar", "S6", 707, {"replicas": 20}, {"replicas": 5},
        "Marcus reductions on Python floats: the only workload bound by the "
        "scalar solvers, with no sampler and no sweep",
        _s6_checks),
)}
