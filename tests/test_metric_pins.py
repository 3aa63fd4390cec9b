"""Metrics pins: sha256 of the canonical ``--json`` bytes of fixed runs.

The other byte-identity tests compare two runs of the *same* code (same
seed, ``--workers`` 1 vs N, ``shards=1`` vs ``storm``). These digests were
recorded once and hold across commits, so a refactor of how the rig
declares, folds or scrapes its metric families cannot change a report
without failing here. The runs cover the ``_other``/``_fleet`` fold of a
fleet wider than ``METRICS_NODE_DETAIL``, the shard and tenant families,
placement, fault and churn/day metrics.

A deliberate output change re-pins: recompute the digest with
``python -m repro <argv> --json | sha256sum`` (after setting the cap for
the capped run) and say why in the change description.
"""

import hashlib

import pytest

from repro.__main__ import main
from repro.workload import scenarios

#: (argv, detail cap or None for the default, sha256 of the stdout bytes)
PINS = {
    "storm-72": (
        ["storm", "--nodes", "72", "--vms-per-node", "1", "--seed", "2"],
        None,
        "456d248b45c0b6d3635a786a3c62d43d1cbc0612d371e95ba0f69c103b56f0b7",
    ),
    "shards-72": (
        ["shards", "--nodes", "72", "--vms-per-node", "1", "--shards", "4"],
        None,
        "eca62491911bb338a006b216d1da749b6337244ed29d31bf76a9dc842abe496d",
    ),
    "shards-cap2": (
        ["shards", "--nodes", "8", "--vms-per-node", "2", "--shards", "2",
         "--quota-mb", "64"],
        2,
        "053ad51da136c0b3c9f3dcfb8cc04878a70a08281119bb14152a68bb2f77c83c",
    ),
    "placement-72": (
        ["placement", "--nodes", "72", "--vms-per-node", "1"],
        None,
        "4a1bdfa34556db4af80297ac573c9c39648fbc4500161af647dc820de60f0fde",
    ),
    "storm-faults": (
        ["storm", "--nodes", "16", "--vms-per-node", "4", "--seed", "3",
         "--faults", "crash:compute1@5+30,flap:compute2@8+10"],
        None,
        "f248c25864961008485190dcf1a317c9fabc14b925b18f58f24a52642072e640",
    ),
    "churn": (
        ["churn", "--nodes", "4", "--days", "0.5"],
        None,
        "e6ed527cce1f2a0b26e2e10604832e22701266b35b60163802cde5663ad94e6c",
    ),
    "day": (
        ["day", "--nodes", "4", "--boots", "40"],
        None,
        "929bb0921f0b7bd1a7106d84191295abbcb68fd20a10148c241c03eeba4bf00d",
    ),
}


@pytest.mark.parametrize("run", sorted(PINS))
def test_canonical_json_digest(run, capsys, monkeypatch):
    argv, cap, digest = PINS[run]
    if cap is not None:
        monkeypatch.setattr(scenarios, "METRICS_NODE_DETAIL", cap)
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
