"""Golden reports: SHA-256 of report.json, metadata left out, for two sweeps.

The trace digests pin the game; these pin the experiment formats around it:
the config echo, the sweep expansion, the seeds and every point statistic
a report row holds. A refactor of the config or report code must leave them
unchanged.
"""

import hashlib
import json

import pytest

from ngg.harness import parse_config, run_experiment

CONFIGS = {
    # every mode; the cap stops one minimal run unconverged
    "modes-capped": {
        "network": {"model": "rg", "m": 30, "p": 0.3},
        "game": {"n": 5, "beta": 0.5, "max_iterations": 800},
        "repetitions": 2,
        "master_seed": 2013,
        "sweep": {"modes": ["ngg", "ngmh", "minimal"]},
    },
    # every optional game key, a pinned network and a two-dimension sweep
    "vocabulary-actual-fixed": {
        "network": {"model": "ba", "m": 30, "n0": 3, "e": 2},
        "game": {"n": 4, "beta": 0.5, "vocabulary": 3,
                 "group_size_basis": "actual"},
        "repetitions": 2,
        "master_seed": 7,
        "fixed_network": True,
        "sweep": {"group_sizes": [3, 6], "betas": [0.3, 0.8]},
    },
}

GOLDEN = {
    "modes-capped":
        "501193ebd79f9909b699ff7af8ee37308b10c7a23b91354e74dda103f1cd3f4b",
    "vocabulary-actual-fixed":
        "1623a8dc41546e91284f83c54cf06c84b0080850fcff91f1483ff35cd417e706",
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_digest_is_golden(tmp_path, name):
    report = run_experiment(parse_config(CONFIGS[name]), tmp_path)
    del report["metadata"]  # wall times and the creation stamp
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
