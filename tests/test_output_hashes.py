"""Pinned samples.csv and summary.json bytes for fixed (scenario, seed) pairs.

summary.json is hashed without its `wall_time_s`, re-serialized as
`RunSummary.to_json` writes it. A change that is meant to leave the outputs
alone (a refactor, a faster sampler or engine) must keep these sha256 hashes.
A change that moves the bytes on purpose updates the hash here and says why in
CHANGES.md. The hashes were recorded with numpy 2.x on x86-64; another numpy
build or CPU may round the last bit of a field evaluation differently.
"""

import hashlib
import json

import pytest

from levyreg.config import parse_config
from levyreg.scenarios import run_scenario

PINNED = {
    "S1": ("scenario = S1\nseed = 303\nreplicas = 5000\n",
           "470a44d3fa616ad6544556c505d1208d6e79ceae2fba1f56739fb2d1e6fe87be"),
    # the density sampler: size table and compensated drift
    "S1-density": ("scenario = S1\nseed = 9\nreplicas = 1000\ntruncation = 0.001\n"
                   "compensate = true\n[measure.density]\npower = 1.5\n",
                   "a3b24d03eeebec7d278e8d565dff49132f6e55e30dac7405fd8f697f849d880c"),
    "S2": ("scenario = S2\nseed = 101\nreplicas = 4\n",
           "204d3e3141fe18b6cf6e766cc5c3644daf6ea1f2e64e64407a8a9ffc688c401d"),
    "S3": ("scenario = S3\nseed = 404\nreplicas = 1000\n[measure.family]\nlevels = 8\n",
           "66a1e15a48cfef5d53b2a5a5eddfa329950c6616d8bf73f5bb70168ae07ec6ba"),
    "S4": ("scenario = S4\nseed = 44\nreplicas = 1000\n",
           "d3fb7deffdde1b9d253bc4964f1f7fa414b9abe6e701f852225be3909dd809f7"),
    "S5": ("scenario = S5\nseed = 55\nreplicas = 1000\nrepetitions = 3\n",
           "0785e092ce93e6eceb49fff1b92bc9c26cab2e8c081b360636b6ffa3de8056e3"),
    # replica 2 diverges: a failed = 1 row is pinned too
    "S6": ("scenario = S6\nseed = 707\nreplicas = 5\nhorizon = 20\n",
           "dc5443553a2c38cfaab7f2d9bf1b4011d9ecce3465111bc7f378ab8b7770a526"),
    "S7": ("scenario = S7\nseed = 808\nreplicas = 1000\ncells = 32\n",
           "04553c4783256cfcce66266ff9a471953f05758e308fab5d5a6489f1e56fb086"),
    # no drift: the Doss-Sussmann flow time is the jump sum plus the Brownian
    # skeleton alone
    "S7-zero-drift": ("scenario = S7\nseed = 808\nreplicas = 1000\ncells = 32\n"
                      "[triplet]\ndrift = 0.0\n",
                      "e623ccca08daf3133718428a31068cbccb624689ce4c6f20ddfae4e7d21088ca"),
    # signed zeros in x0 and the drift reach an odd field unchanged
    "S1-signed-zero": ("scenario = S1\nseed = 303\nreplicas = 5000\nx0 = -0.0\n"
                       "[triplet]\ndrift = -0.0\n"
                       "[drift_field]\nname = linear\nslope = 1.0\n",
                       "a739365e94351cca1e580abb59769da1f70fcb666f6f7c3f93c2481f2ff8c69e"),
}


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_samples_csv_hash(scenario, tmp_path):
    text, expected = PINNED[scenario]
    run_scenario(parse_config(text), out_dir=tmp_path)
    got = hashlib.sha256((tmp_path / "samples.csv").read_bytes()).hexdigest()
    assert got == expected


# S2's and S6's diagnostics live only in summary.json: S6 parts (a), (c), (d)
# and (e) (unit-diffusion reduction, conjugacy, chain rule, jump remainder)
# write nothing to samples.csv
SUMMARY_PINNED = {
    "S2": (PINNED["S2"][0],
           "acaa33e91cf127fb36e885fcc5254e559bf92d1930858144ff69fd1c4d8e2f66"),
    # conjugacy diverges at horizon 20 and its worst gap is written as null
    "S6": (PINNED["S6"][0],
           "f7eea32d1040f31d23cd1ab21477ed2ae07e7c05e497d97abfcfa546c7db0d87"),
    # at the default horizon every conjugacy gap is finite and pinned
    "S6-conjugacy": ("scenario = S6\nseed = 707\nreplicas = 5\n",
                     "a55455ea3493ff1ea3949b02e64c4c9bc46819dff0a03e932feff2e28ce2bc67"),
}


@pytest.mark.parametrize("scenario", sorted(SUMMARY_PINNED))
def test_summary_json_hash(scenario, tmp_path):
    text, expected = SUMMARY_PINNED[scenario]
    run_scenario(parse_config(text), out_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary.pop("wall_time_s")
    kept = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    assert hashlib.sha256(kept.encode()).hexdigest() == expected
