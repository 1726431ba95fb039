"""Correctness checks the benchmark applies outside its timed region.

Full-flow results go through ``repro.api.audit_solution``.  The flow's
documented model (``docs/model.md``, "Trunk materialization ... dogleg
jogs included") places a one-pitch wrong-way jog on the trunk's own
layer wherever the track assignment moves a segment to another track
at a tile boundary (``repro.detailed.trunks``).  The audit's AUD006
preferred-direction rule reports each such jog edge.  This module
re-derives the jog edges from the track assignment itself and sets
exactly those findings apart, so they are counted (``audit.dogleg_jogs``)
instead of failing the run; every other finding and every counter drift
fails it.
"""

from __future__ import annotations

from typing import Any

from repro.api import audit_solution

_JOG_MESSAGES = {
    True: "x-direction wire on a vertical layer",
    False: "y-direction wire on a horizontal layer",
}


def dogleg_jogs(flow: Any) -> set[tuple[str, str, int, int, int]]:
    """``(message, net, x, y, layer)`` of every jog edge the track assignment prescribes."""
    tile = flow.design.config.tile_size
    assignment = flow.track_assignment
    jogs: set[tuple[str, str, int, int, int]] = set()
    for panels, vertical in ((assignment.columns, True), (assignment.rows, False)):
        for (_pos, layer), result in panels.items():
            nets = {seg.index: seg.net for seg in result.panel.segments}
            for seg_index, per_row in result.tracks.items():
                net = nets[seg_index]
                if net in assignment.failed_nets:
                    continue
                rows = sorted(per_row)
                for prev, row in zip(rows, rows[1:]):
                    lo, hi = sorted((per_row[prev], per_row[row]))
                    for track in range(lo, hi):
                        x, y = (track, row * tile) if vertical else (row * tile, track)
                        jogs.add((_JOG_MESSAGES[vertical], net, x, y, layer))
    return jogs


def audit_flow(flow: Any) -> tuple[list[str], int]:
    """Audit one flow result.

    Returns the problems that fail the run and the number of AUD006
    findings that are prescribed dogleg jogs.
    """
    audit = audit_solution(flow.detailed_result, flow.report, flow.global_result)
    jogs = dogleg_jogs(flow)
    problems: list[str] = []
    jog_findings = 0
    for f in audit.findings:
        if f.rule == "AUD006" and (f.message, f.net, f.x, f.y, f.layer) in jogs:
            jog_findings += 1
        else:
            problems.append(f"{f.rule} net={f.net} ({f.x},{f.y},{f.layer}): {f.message}")
    problems.extend(f"drift: {d}" for d in audit.drift)
    if flow.report.vertical_violations:
        problems.append(f"{flow.report.vertical_violations} vertical violations")
    return problems, jog_findings
