"""Bench report helpers: honest speedup labels and per-phase totals.

Parallel wall-clock ratios go through :func:`speedup_summary`, which
reports ``wall_time_s`` per worker count and labels each ratio —
sub-1× is ``"overhead-bound"``, not a "0.12× speedup": on hosts whose
cores can't actually run the workers concurrently, the measurement is
IPC + snapshot-codec overhead, and calling it a speedup misled every
reader of the pr4-era files.  :func:`phase_totals` turns the span
histograms of a traced run into a per-phase time breakdown (ship /
merge / classify / worker compute), so a bench report says *where* a
wall-clock number went, not just what it was.
"""

from __future__ import annotations

import os
from typing import Dict


def speedup_summary(serial_wall_s: float, parallel_wall_s: Dict[int, float]) -> Dict:
    """Honest wall-clock comparison across worker counts.

    ``parallel_wall_s`` maps worker count → wall seconds.  Each entry
    reports the serial/parallel ratio and a label: ``"speedup"`` above
    1×, ``"overhead-bound"`` at or below — a sharded run that loses to
    the serial loop is dominated by snapshot/IPC cost, and should be
    read next to ``cpu_count`` (fewer cores than workers can't show a
    real speedup at all).
    """
    cpu_count = os.cpu_count() or 1
    runs = []
    for workers in sorted(parallel_wall_s):
        wall = parallel_wall_s[workers]
        ratio = serial_wall_s / wall if wall else 0.0
        runs.append(
            {
                "workers": workers,
                "wall_time_s": round(wall, 4),
                "ratio_vs_serial": round(ratio, 3),
                "label": "speedup" if ratio > 1.0 else "overhead-bound",
                "cores_limited": cpu_count < workers,
            }
        )
    return {
        "serial_wall_time_s": round(serial_wall_s, 4),
        "cpu_count": cpu_count,
        "runs": runs,
    }


def phase_totals(metrics: Dict) -> Dict:
    """Per-phase time breakdown from a merged metrics snapshot.

    Span histograms land in the registry as ``span.<name>`` dicts with
    ``count``/``sum``; this flattens them to ``{name: {count,
    total_s}}`` so a bench report can say where the wall-clock of a
    traced run actually went (snapshot shipping vs merge vs
    classification vs in-worker compute).  Pass the coordinator-side
    snapshot and the merged worker snapshot separately — their lanes
    overlap in time, so their totals must not be added together.
    """
    out: Dict = {}
    for name, value in metrics.items():
        if name.startswith("span.") and isinstance(value, dict):
            out[name[len("span."):]] = {
                "count": value.get("count", 0),
                "total_s": round(value.get("sum", 0.0), 4),
            }
    return out


__all__ = ["phase_totals", "speedup_summary"]
