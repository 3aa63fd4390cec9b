"""Health rollups over stored metrics (``python -m repro metrics PATH``).

Consumes what :func:`repro.metrics.export.write_run_exports` (or the sweep
result store) persisted and answers the questions an operator would put to
a dashboard: how hot did the network links run, how did the ARC hit rate
evolve, how much RAM did dedup tables claim at their worst, and how many
nodes were down at once. Pure reads over the canonical block — no live
registry needed, so it works equally on a fresh run directory, a single
``report.json``, or a whole sweep's merged report.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..common.errors import ConfigError
from .export import collect_metric_blocks, export_name
from .fold import fleet_total_series

__all__ = ["render_rollups", "rollup", "summarize_path"]


def _series_of(block: dict, name: str) -> list[dict]:
    return [s for s in block.get("series", ()) if s["name"] == name]


def _instrument(block: dict, name: str) -> dict | None:
    for family in block.get("instruments", ()):
        if family["name"] == name:
            return family
    return None


def _peak(series_list: list[dict]) -> tuple[float, float, dict] | None:
    """(value, time, labels) of the single largest sample, ties going to
    the earliest time then the lexicographically first series."""
    best: tuple[float, float, dict] | None = None
    for series in series_list:
        for t, v in zip(series["t"], series["v"]):
            if best is None or v > best[0] or (v == best[0] and t < best[1]):
                best = (v, t, series["labels"])
    return best


def _pointwise(
    series_list: list[dict], reduce=sum
) -> tuple[list[float], list[float]]:
    """``reduce`` of the values across series at each shared scrape time
    (series sampled by one sampler share their time axis; stragglers
    count where present)."""
    acc: dict[float, list[float]] = {}
    for series in series_list:
        for t, v in zip(series["t"], series["v"]):
            acc.setdefault(t, []).append(v)
    times = sorted(acc)
    return times, [reduce(acc[t]) for t in times]


def _curve_points(times: list[float], values: list[float]) -> list[list[float]]:
    """First / middle / last points of a curve (fewer if short)."""
    if not times:
        return []
    picks = sorted({0, len(times) // 2, len(times) - 1})
    return [[times[i], values[i]] for i in picks]


def rollup(block: dict) -> dict:
    """Compute the headline health numbers for one metrics block."""
    out: dict = {}

    util = _series_of(block, "net_pipe_utilization")
    peak = _peak(util)
    if peak is not None:
        out["peak_link_utilization"] = {
            "value": peak[0],
            "t": peak[1],
            "link": peak[2].get("link", "?"),
            "tier": peak[2].get("tier", "?"),
        }

    hit_rate = _series_of(block, "zfs_arc_hit_rate")
    if hit_rate:
        times, means = _pointwise(hit_rate, lambda vs: sum(vs) / len(vs))
        out["arc_hit_rate_curve"] = _curve_points(times, means)

    # past the detail cap, the compute tier's _fleet series already totals
    # its detail nodes; the storage pool's series is added once
    ddt = fleet_total_series(_series_of(block, "zfs_ddt_core_bytes"))
    if ddt:
        times, totals = _pointwise(ddt)
        high = max(range(len(times)), key=lambda i: (totals[i], -times[i]))
        out["ddt_core_bytes_high_water"] = {
            "bytes": totals[high],
            "t": times[high],
        }

    down = _series_of(block, "faults_nodes_down")
    if down:
        peak_down = _peak(down)
        if peak_down is not None:
            out["peak_nodes_down"] = {"value": peak_down[0], "t": peak_down[1]}

    boots = _instrument(block, "squirrel_boots_total")
    if boots is not None:
        out["boots"] = sum(s["value"] for s in boots["samples"])
    latency = _instrument(block, "squirrel_boot_latency_seconds")
    if latency is not None and latency["samples"]:
        sample = latency["samples"][0]
        out["boot_latency"] = {
            "count": sample["count"],
            "mean_s": sample["sum"] / sample["count"] if sample["count"] else 0.0,
        }

    out["n_series"] = len(block.get("series", ()))
    out["scrapes"] = block.get("scrapes")
    return out


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} TiB"


def render_rollups(rollups: dict[str, dict]) -> str:
    """Human-readable rendering of ``{block name: rollup}`` maps."""
    lines: list[str] = []
    for name in sorted(rollups):
        roll = rollups[name]
        lines.append(f"== {name} ==")
        peak = roll.get("peak_link_utilization")
        if peak:
            lines.append(
                f"  peak link utilization  {peak['value'] * 100:6.1f}%  "
                f"({peak['tier']}:{peak['link']} @ t={peak['t']:.0f}s)"
            )
        curve = roll.get("arc_hit_rate_curve")
        if curve:
            pts = "  ->  ".join(
                f"{v * 100:.1f}% @ t={t:.0f}s" for t, v in curve
            )
            lines.append(f"  ARC hit-rate curve     {pts}")
        ddt = roll.get("ddt_core_bytes_high_water")
        if ddt:
            lines.append(
                f"  DDT RAM high-water     {_fmt_bytes(ddt['bytes'])} "
                f"@ t={ddt['t']:.0f}s"
            )
        down = roll.get("peak_nodes_down")
        if down:
            lines.append(
                f"  peak nodes down        {int(down['value'])} "
                f"@ t={down['t']:.0f}s"
            )
        if "boots" in roll:
            lines.append(f"  boots completed        {int(roll['boots'])}")
        lat = roll.get("boot_latency")
        if lat:
            lines.append(
                f"  boot latency           n={lat['count']} "
                f"mean={lat['mean_s']:.2f}s"
            )
        lines.append(
            f"  series sampled         {roll['n_series']}"
            + (
                f"  ({roll['scrapes']} scrapes)"
                if roll.get("scrapes") is not None
                else ""
            )
        )
    return "\n".join(lines) + "\n"


def _load_payload(path: Path) -> tuple[Path, dict]:
    if path.is_dir():
        report = path / "report.json"
        if not report.is_file():
            raise ConfigError(f"no report.json under {path}")
        path = report
    if not path.is_file():
        raise ConfigError(f"no such metrics file: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            return path, json.load(fh)
    except ValueError as error:  # torn JSON or not UTF-8
        raise ConfigError(f"{path}: not a JSON report ({error})") from None


#: the fields :func:`rollup` reads off each instrument and each series
_FIELDS = {"instruments": {"name", "samples"}, "series": {"name", "labels", "t", "v"}}


def summarize_path(path: str | Path) -> dict[str, dict]:
    """Rollups for a stored run or sweep directory (or report file).

    Accepts the directory ``--metrics`` wrote, a sweep result directory
    (``report.json`` holding ``points``), or a report file directly.
    Returns ``{block name: rollup}``; sweep points are prefixed with their
    point index (``point3.squirrel``).
    """
    report, payload = _load_payload(Path(path))
    blocks: dict[str, dict] = {}
    points = payload.get("points") if isinstance(payload, dict) else None
    if isinstance(points, list):
        for i, point in enumerate(points):
            for block_path, block in collect_metric_blocks(point, "report").items():
                blocks[f"point{i}.{export_name(block_path)}"] = block
    else:
        for block_path, block in collect_metric_blocks(payload, "report").items():
            blocks[export_name(block_path)] = block
    for name, block in blocks.items():
        for part, fields in _FIELDS.items():
            if not all(isinstance(entry, dict) and entry.keys() >= fields
                       for entry in block.get(part, ())):
                raise ConfigError(f"{report}: malformed metrics block {name!r} "
                                  f"({part} need {', '.join(sorted(fields))})")
    rollups = {name: rollup(block) for name, block in blocks.items()}
    if not rollups:
        raise ConfigError(f"no metrics blocks found under {path}")
    return rollups
