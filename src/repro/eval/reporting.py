"""Plain-text rendering of tables and bar charts for the benchmarks.

The benchmark harnesses print the same rows/series the paper reports;
these helpers keep that output aligned and readable in a terminal (and in
the committed ``bench_output.txt``).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

__all__ = [
    "format_table",
    "format_grouped_bars",
    "format_route_series",
    "format_trace",
]


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render dict-rows as an aligned ASCII table (insertion-order columns)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        column: max(len(column), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(" | ".join(
            str(row.get(column, "")).ljust(widths[column]) for column in columns
        ))
    return "\n".join(lines)


def format_route_series(
    points: Sequence[Mapping[str, object]],
    title: str = "Per-route stats series",
    routes: Sequence[str] = ("sparql", "complete", "suggest"),
) -> str:
    """Render a ``/stats/series`` point list as per-tick route rows.

    Each row shows, per tick, the cumulative request count and the
    served-latency p50/p99 of each route, plus the queue gauges — the
    time series the replay driver snapshots while workers run.
    """
    if not points:
        return f"{title}\n(no points)"
    rows: List[Mapping[str, object]] = []
    for point in points:
        route_stats = point.get("routes", {}) or {}
        row: dict = {
            "tick": point.get("tick", ""),
            "t+s": round(float(point.get("elapsed_s", 0.0)), 2),
        }
        for route in routes:
            stats = route_stats.get(route)  # type: ignore[union-attr]
            if not stats:
                row[f"{route} req"] = 0
                row[f"{route} p50ms"] = "-"
                continue
            latency = stats.get("latency", {})
            row[f"{route} req"] = stats.get("requests", 0)
            row[f"{route} p50ms"] = latency.get("p50_ms", 0.0)
        row["queued^"] = point.get("queued_peak", 0)
        row["inflight^"] = point.get("in_flight_peak", 0)
        rows.append(row)
    return format_table(rows, title=title)


def format_trace(trace) -> str:
    """Render a query trace as an indented ASCII operator tree.

    Accepts a :class:`~repro.sparql.trace.QueryTrace` or its
    ``to_dict()`` form (so traces pulled off the wire render without
    reconstruction).  Mirrors EXPLAIN's two-space indentation; each span
    line shows wall-clock ms plus whichever of rows/batches/est the
    operator recorded, with the est→actual misestimate ratio when both
    are present.
    """
    if hasattr(trace, "to_dict"):
        trace = trace.to_dict()
    lines: List[str] = []
    trace_id = trace.get("trace_id", "")
    wall_ms = trace.get("wall_ms", 0.0)
    lines.append(f"trace {trace_id}  [{wall_ms:.3f} ms]")
    attrs = trace.get("attrs", {})
    if attrs:
        extras = " ".join(f"{key}={value}" for key, value in attrs.items())
        lines.append(f"  {extras}")

    def _span_line(span: Mapping[str, object], indent: int) -> None:
        pad = "  " * indent
        attrs = span.get("attrs", {}) or {}
        parts = [f"{float(span.get('wall_ms', 0.0)):.3f} ms"]
        rows = attrs.get("rows")
        est = attrs.get("est")
        if rows is not None:
            parts.append(f"rows={rows}")
        if est is not None:
            if rows is not None:
                ratio = (rows or 0) / est if est else float(rows or 0)
                parts.append(f"est={est} ({ratio:.2f}x)")
            else:
                parts.append(f"est={est}")
        if "batches" in attrs:
            parts.append(f"batches={attrs['batches']}")
        for key, value in attrs.items():
            if key in ("rows", "est", "batches"):
                continue
            parts.append(f"{key}={value}")
        lines.append(f"{pad}{span.get('name', '?')}  [{', '.join(parts)}]")
        for child in span.get("children", ()) or ():
            _span_line(child, indent + 1)

    for span in trace.get("spans", ()) or ():
        _span_line(span, 1)
    return "\n".join(lines)


def format_grouped_bars(
    groups: Mapping[str, Mapping[str, Tuple[float, float]]],
    title: str = "",
    width: int = 30,
    unit: str = "",
) -> str:
    """Figure 8/10/11 style: per difficulty group, one bar per system,
    each value a (mean, 95%-CI half-width) pair."""
    lines: List[str] = []
    if title:
        lines.append(title)
    peak = 1.0
    for systems in groups.values():
        for mean, _ in systems.values():
            peak = max(peak, mean)
    for group, systems in groups.items():
        lines.append(f"  {group}:")
        label_width = max(len(name) for name in systems)
        for name, (mean, ci) in systems.items():
            bar = "#" * max(0, round(width * mean / peak))
            lines.append(
                f"    {name.ljust(label_width)} | {bar} {mean:.1f} ± {ci:.1f}{unit}"
            )
    return "\n".join(lines)
