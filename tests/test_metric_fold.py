"""The detail cap's fold rule, checked family by family.

One simulation is run twice: with the detail cap above the fleet (every
node and tenant gets its own children) and with the cap at 2. Metrics are
pure reads, so both runs simulate the same thing, and every capped family
must be the uncapped one folded by the rule in :mod:`repro.metrics.fold`:

* counters: keys past the cap land in ``_other``, so every group of
  children (same labels apart from the capped one) keeps its total;
* summing gauges: the ``_fleet`` child and every ``_fleet`` series sample
  equal the pointwise sum over all compute nodes of the uncapped run;
* every other child and series is an uncapped one, value for value.

The summarizer's DDT high-water and its loader errors are checked here
too, since they read the same rule back from stored blocks.
"""

from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.common.errors import ConfigError
from repro.experiments import shard_storm
from repro.faults import FaultPlan
from repro.metrics import FLEET, OTHER, FoldAxis, MetricsRegistry, fleet_total_series
from repro.metrics.summarize import rollup, summarize_path
from repro.workload import StormConfig, boot_storm, scenarios

CAP = 2
AXES = ("node", "link", "tenant")


def _storm():
    return boot_storm(StormConfig(
        n_nodes=6, vms_per_node=2, scale=1 / 4096, seed=3,
        faults=FaultPlan.parse("crash:compute1@5+30,crash:compute4@8+20"),
    )).squirrel.metrics


def _shards():
    return shard_storm.run(
        shards=2, quota_mb=64, nodes=6, vms_per_node=2
    ).report.squirrel.metrics


RUNS = {"storm": _storm, "shards": _shards}


@pytest.fixture(scope="module", params=sorted(RUNS))
def blocks(request):
    """(uncapped block, capped block) of one run."""
    run = RUNS[request.param]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "METRICS_NODE_DETAIL", 64)
        uncapped = run()
        mp.setattr(scenarios, "METRICS_NODE_DETAIL", CAP)
        capped = run()
    return uncapped, capped


def _detail(capped: dict) -> set[str]:
    """Every node/tenant label value the capped run kept."""
    return {
        value
        for family in capped["instruments"]
        for sample in family["samples"]
        for label, value in sample["labels"].items()
        if label in AXES and value not in (OTHER, FLEET)
    }


def _split(labels: dict) -> tuple[str | None, tuple]:
    """(capped-axis value, the other labels) of one child."""
    axis = next((k for k in AXES if k in labels), None)
    rest = tuple(sorted((k, v) for k, v in labels.items() if k != axis))
    return (labels[axis] if axis else None), rest


def _expected(samples: list[dict], kind: str, detail: set[str]) -> dict:
    """The uncapped children folded by the rule, keyed by sorted labels."""
    out: dict = {}
    for sample in samples:
        value, rest = _split(sample["labels"])
        if value is None or value in detail:
            out[tuple(sorted(sample["labels"].items()))] = sample
        elif kind == "counter":
            axis = next(k for k in AXES if k in sample["labels"])
            key = tuple(sorted({**dict(rest), axis: OTHER}.items()))
            folded = out.setdefault(key, {"labels": dict(key), "value": 0.0})
            folded["value"] += sample["value"]
    return out


class TestFoldExactness:
    def test_cap_drops_detail_children(self, blocks):
        uncapped, capped = blocks
        assert len(_detail(capped)) < len(_detail(uncapped))
        assert any(
            s["labels"].get("node") == FLEET
            for f in capped["instruments"] for s in f["samples"]
        )

    def test_every_family_folds_exactly(self, blocks):
        uncapped, capped = blocks
        detail = _detail(capped)
        by_name = {f["name"]: f for f in capped["instruments"]}
        assert sorted(by_name) == [f["name"] for f in uncapped["instruments"]]
        for family in uncapped["instruments"]:
            got = {
                tuple(sorted(s["labels"].items())): s
                for s in by_name[family["name"]]["samples"]
            }
            fleet = {k: got.pop(k) for k in list(got) if FLEET in dict(k).values()}
            want = _expected(family["samples"], family["kind"], detail)
            assert got == want, family["name"]
            for key, sample in fleet.items():
                rest = tuple(kv for kv in key if kv[1] != FLEET)
                total = sum(
                    s["value"] for s in family["samples"]
                    if _split(s["labels"])[1] == rest
                    and _split(s["labels"])[0].startswith("compute")
                )
                assert sample["value"] == total, (family["name"], key)

    def test_every_counter_keeps_its_total(self, blocks):
        uncapped, capped = blocks
        by_name = {f["name"]: f for f in capped["instruments"]}
        for family in uncapped["instruments"]:
            if family["kind"] == "counter":
                assert sum(s["value"] for s in family["samples"]) == sum(
                    s["value"] for s in by_name[family["name"]]["samples"]
                ), family["name"]

    def test_every_series_folds_exactly(self, blocks):
        uncapped, capped = blocks
        detail = _detail(capped)
        want = {
            (s["name"], tuple(sorted(s["labels"].items()))): s
            for s in uncapped["series"]
        }
        for series in capped["series"]:
            value, rest = _split(series["labels"])
            if value != FLEET:
                key = (series["name"], tuple(sorted(series["labels"].items())))
                assert series == want[key]
                continue
            addends = [
                s for s in uncapped["series"]
                if s["name"] == series["name"]
                and _split(s["labels"])[1] == rest
                and _split(s["labels"])[0].startswith("compute")
            ]
            assert addends and all(s["t"] == series["t"] for s in addends)
            sums = [sum(column) for column in zip(*(s["v"] for s in addends))]
            assert series["v"] == sums, (series["name"], rest)
        kept = {
            (s["name"], tuple(sorted(s["labels"].items())))
            for s in capped["series"]
        }
        for (name, labels), series in want.items():
            value, _rest = _split(dict(labels))
            assert (value is None or value in detail) == ((name, labels) in kept)


class TestFoldAxis:
    def test_labels_fold_past_the_cap(self):
        axis = FoldAxis([3, 1, 2], 2, fmt=lambda t: f"t{t:02d}")
        assert axis.capped and axis.detail == (3, 1)
        assert [axis.label(t) for t in (3, 1, 2)] == ["t03", "t01", OTHER]
        assert axis.counter_labels() == ["t03", "t01", OTHER]

    def test_uncapped_axis_has_no_fold_child(self):
        axis = FoldAxis(["a", "b"], 64)
        assert not axis.capped and axis.counter_labels() == ["a", "b"]

    def test_gauges_read_mapping_values(self):
        """A mapping axis hands readers its values; a ``str`` read is an
        attribute path on them, summed into ``_fleet`` like a callable."""
        pools = {name: SimpleNamespace(used=n) for name, n in zip("abc", (1, 2, 4))}
        registry = MetricsRegistry()
        for name, read in (("path", "used"), ("call", lambda p, tier: p.used)):
            family = registry.declare(
                name, "gauge", labels=(("node", FoldAxis(pools, 2)), ("tier", ("x",))),
                read=read, sums=True,
            )
            assert {k: g.read() for k, g in family.samples()} == {
                ("a", "x"): 1.0, ("b", "x"): 2.0, (FLEET, "x"): 7.0,
            }


class TestSummarizerFold:
    def test_ddt_high_water_matches_uncapped(self, blocks):
        uncapped, capped = blocks
        assert (
            rollup(capped)["ddt_core_bytes_high_water"]
            == rollup(uncapped)["ddt_core_bytes_high_water"]
        )

    def test_uncapped_total_sums_every_series(self, blocks):
        uncapped, _capped = blocks
        ddt = [s for s in uncapped["series"] if s["name"] == "zfs_ddt_core_bytes"]
        assert fleet_total_series(ddt) == ddt
        totals = [sum(column) for column in zip(*(s["v"] for s in ddt))]
        assert rollup(uncapped)["ddt_core_bytes_high_water"]["bytes"] == max(totals)

    def test_fleet_replaces_only_its_own_tier(self):
        series = [
            {"labels": {"node": n, "tier": t}}
            for n, t in (("c0", "compute"), (FLEET, "compute"), ("sp", "storage"))
        ]
        assert fleet_total_series(series) == series[1:]


@pytest.mark.parametrize(
    "content",
    [b'{"a": [1, 2', b"\xff\xfe{}",
     b'{"report": {"metrics": {"instruments": '
     b'[{"name": "squirrel_boots_total"}], "series": []}}}'],
    ids=["torn-json", "not-utf8", "no-samples"],
)
def test_bad_report_is_a_config_error(content, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_bytes(content)
    with pytest.raises(ConfigError, match="report.json"):
        summarize_path(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["metrics", str(report)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "report.json" in err and "Traceback" not in err
