"""Static concurrency-effect analyzer (the CONC rule catalog).

The parallel router's serial-equivalence guarantee rests on a
discipline the runtime sanitizer can only check for workloads that
happen to exercise it: speculative code must route every shared-state
access through snapshots and overlays, process workers must declare
the structures they touch, and the merge loop must consume results in
submission order.  PR 8's 10x-scale differential found two bugs
(batch-backfill ordering, dropped trim-release tombstones) that every
dynamic check missed.  This module is the static twin: an
interprocedural, AST-based effect analyzer that proves the discipline
over the code itself, before any workload runs.

The table-building and call-resolution machinery is the shared
:class:`~repro.analysis.callgraph.CallGraph` (also the foundation of
the cross-backend parity analyzer): every function goes into a table
with its direct shared-state effects and outgoing calls,
``@repro.analysis.context(...)`` markers seed execution contexts
(canonical / speculative / worker-process), and effects resolve
through the call graph with marked callees acting as contract
boundaries.  This module contributes the CONC-specific judgment: from
each speculative / worker-process seed, the resolved effects are
checked against the seed's declared footprint (see
:data:`~repro.analysis.rules.CONC_RULES`).

Findings mirror the determinism linter's: ``# repro: allow-CONCnnn``
suppressions, a committed fingerprint baseline
(``races-baseline.json``), and ``repro races`` as the CLI front end.
"""

from __future__ import annotations

import dataclasses
import pathlib
from collections.abc import Iterable, Sequence
from typing import Optional

from .callgraph import (
    BASE,
    CHANNEL,
    CallGraph,
    Effect,
    FunctionInfo,
    LambdaScan,
)
from .context import SHARED_STRUCTURES
from .findings import (
    DeadSuppression,
    Finding,
    dead_suppression_lines,
    finding_lines,
    suppression_map,
)
from .findings import resolve_rule_filter as _resolve_rule_filter
from .lint import iter_python_files
from .rules import CONC_RULES

#: Packages (inside a ``repro`` tree) whose files the CONC rules judge.
#: Standalone files (fixtures, scripts) are always in scope.
CONCURRENCY_PACKAGES = frozenset({"parallel", "globalroute", "detailed"})


def concurrency_rules_apply(path: str) -> bool:
    """Whether ``path`` is in scope for the CONC rules.

    Inside a ``repro`` package tree only the parallel-routing packages
    are judged; standalone files (fixtures, scripts) always are, so
    test corpora exercise every rule.
    """
    parts = pathlib.PurePath(path).parts
    if "repro" in parts:
        return any(part in CONCURRENCY_PACKAGES for part in parts)
    return True


class _Analyzer(CallGraph):
    """The CONC rule judgment over one shared call graph."""

    # -- rule checks ---------------------------------------------------
    def _resolved_seed_effects(
        self, info: FunctionInfo, effects: Iterable[Effect]
    ) -> list[Effect]:
        """Map parameter roots via the seed's own signature; dedupe."""
        resolved: list[Effect] = []
        seen: set[tuple[str, str, int, int]] = set()
        for effect in effects:
            root = effect.root
            if isinstance(root, int):
                root = info.seed_root(root)
            if root not in (BASE, CHANNEL):
                continue
            key = (effect.structure, effect.kind, effect.line, effect.col)
            if key in seen:
                continue
            seen.add(key)
            resolved.append(effect)
        return resolved

    @staticmethod
    def _via_suffix(effect: Effect) -> str:
        if not effect.via:
            return ""
        return " (via " + " -> ".join(effect.via) + ")"

    def _finding(
        self,
        info: FunctionInfo,
        rule: str,
        detail: str,
        line: int,
        col: int,
        text: str,
    ) -> Finding:
        return Finding(
            path=info.path,
            line=line,
            col=col,
            rule=rule,
            message=f"{CONC_RULES[rule].title}: {detail}",
            text=text,
        )

    def _check_seed(self, info: FunctionInfo) -> list[Finding]:
        context = info.effective_context
        resolved = self._resolved_seed_effects(info, self.summary(info))
        findings: list[Finding] = []
        declared = (
            info.declared_reads is not None
            or info.declared_writes is not None
        )
        if declared:
            allowed = {
                "read": frozenset(info.declared_reads or ()),
                "write": frozenset(info.declared_writes or ()),
            }
            for effect in resolved:
                if effect.structure in allowed[effect.kind]:
                    continue
                findings.append(
                    self._finding(
                        info,
                        "CONC004",
                        f"{info.name} declares no {effect.kind} of "
                        f"{effect.structure} but statically reaches one"
                        f"{self._via_suffix(effect)}",
                        effect.line,
                        effect.col,
                        effect.text,
                    )
                )
            return findings
        for effect in resolved:
            rule = "CONC001" if effect.kind == "write" else "CONC002"
            findings.append(
                self._finding(
                    info,
                    rule,
                    f"{context} function {info.name} {effect.kind}s "
                    f"{effect.structure}{self._via_suffix(effect)}",
                    effect.line,
                    effect.col,
                    effect.text,
                )
            )
        return findings

    def _check_run_lambda(
        self, info: FunctionInfo, scan: LambdaScan
    ) -> list[Finding]:
        effects = list(scan.effects)
        for call in scan.calls:
            effects.extend(self.call_contributions(call, info))
        findings: list[Finding] = []
        for effect in self._resolved_seed_effects(info, effects):
            rule = "CONC001" if effect.kind == "write" else "CONC002"
            findings.append(
                self._finding(
                    info,
                    rule,
                    f"pool-run lambda in {info.name} {effect.kind}s "
                    f"{effect.structure}{self._via_suffix(effect)}",
                    effect.line,
                    effect.col,
                    effect.text,
                )
            )
        return findings

    def raw_findings(self) -> list[Finding]:
        """Every CONC finding over the in-scope files, pre-suppression."""
        findings: list[Finding] = []
        for info in self.table:
            if not concurrency_rules_apply(info.path):
                continue
            context = info.effective_context
            for candidate in info.syntactic:
                if candidate.rule == "CONC005" and context != "canonical":
                    continue
                findings.append(
                    self._finding(
                        info,
                        candidate.rule,
                        candidate.detail,
                        candidate.line,
                        candidate.col,
                        candidate.text,
                    )
                )
            if context in ("speculative", "worker-process"):
                findings.extend(self._check_seed(info))
            for scan in info.run_lambdas:
                findings.extend(self._check_run_lambda(info, scan))
        unique: dict[tuple[str, int, int, str, str], Finding] = {}
        for finding in findings:
            key = (
                finding.path,
                finding.line,
                finding.col,
                finding.rule,
                finding.message,
            )
            unique.setdefault(key, finding)
        return sorted(
            unique.values(),
            key=lambda f: (f.path, f.line, f.col, f.rule, f.message),
        )


@dataclasses.dataclass
class RaceReport:
    """Outcome of one concurrency-analysis run over a set of paths."""

    findings: list[Finding]
    grandfathered: list[Finding]
    suppressed: int
    files: int
    dead_suppressions: list[DeadSuppression] = dataclasses.field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        """Whether the run is clean (no non-grandfathered findings)."""
        return not self.findings


def _apply_suppressions(
    raw: Iterable[Finding], sources: dict[str, str]
) -> tuple[list[Finding], int, list[DeadSuppression]]:
    """Honor ``# repro: allow-CONCnnn`` comments; spot dead ones."""
    kept: list[Finding] = []
    suppressed = 0
    allowed = {
        path: suppression_map(source, "CONC")
        for path, source in sources.items()
    }
    lines_by_path = {
        path: source.splitlines() for path, source in sources.items()
    }
    used: dict[tuple[str, int], set[str]] = {}
    for finding in raw:
        codes = allowed.get(finding.path, {}).get(
            finding.line, frozenset()
        )
        if finding.rule in codes:
            suppressed += 1
            used.setdefault((finding.path, finding.line), set()).add(
                finding.rule
            )
        else:
            kept.append(finding)
    dead: list[DeadSuppression] = []
    for path in sorted(allowed):
        lines = lines_by_path[path]
        for lineno, codes in sorted(allowed[path].items()):
            line = lines[lineno - 1] if lineno <= len(lines) else ""
            unused = sorted(codes - used.get((path, lineno), set()))
            if unused:
                dead.append(
                    DeadSuppression(
                        path=path,
                        line=lineno,
                        codes=tuple(unused),
                        text=line.strip(),
                    )
                )
    return kept, suppressed, dead


def resolve_races_rule_filter(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> frozenset[str]:
    """The active CONC rule codes after ``--select`` / ``--ignore``."""
    return _resolve_rule_filter(select, ignore, known=CONC_RULES)


def analyze_source(source: str, path: str) -> list[Finding]:
    """Analyze one file's source text; suppression comments honored."""
    analyzer = _Analyzer([(path, source)])
    kept, _, _ = _apply_suppressions(
        analyzer.raw_findings(), {path: source}
    )
    return kept


def analyze_paths(
    paths: Sequence[str],
    baseline_fingerprints: frozenset[tuple[str, str, str]] = frozenset(),
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> RaceReport:
    """Analyze every Python file under ``paths``.

    All files feed the function table (so cross-module calls resolve);
    the CONC rules judge only in-scope files (see
    :func:`concurrency_rules_apply`).  Baseline fingerprints
    grandfather findings exactly like the linter's; ``select`` /
    ``ignore`` restrict the active rules and raise
    :class:`ValueError` on unknown codes.
    """
    active = resolve_races_rule_filter(select, ignore)
    files: list[tuple[str, str]] = []
    sources: dict[str, str] = {}
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        files.append((str(file_path), source))
        sources[str(file_path)] = source
    analyzer = _Analyzer(files)
    kept, suppressed, dead = _apply_suppressions(
        analyzer.raw_findings(), sources
    )
    findings: list[Finding] = []
    grandfathered: list[Finding] = []
    for finding in kept:
        if finding.rule not in active:
            continue
        if finding.fingerprint in baseline_fingerprints:
            grandfathered.append(finding)
        else:
            findings.append(finding)
    return RaceReport(
        findings=findings,
        grandfathered=grandfathered,
        suppressed=suppressed,
        files=len(files),
        dead_suppressions=dead,
    )


def render_races(report: RaceReport) -> str:
    """Human-readable analyzer output, mirroring the linter's."""
    out = finding_lines(report.findings)
    out.extend(dead_suppression_lines(report.dead_suppressions))
    summary = (
        f"{len(report.findings)} finding(s) in {report.files} file(s)"
    )
    if report.grandfathered:
        summary += f", {len(report.grandfathered)} grandfathered"
    if report.dead_suppressions:
        summary += (
            f", {len(report.dead_suppressions)} dead suppression(s)"
        )
    out.append(summary)
    return "\n".join(out)


#: Referenced so the shared vocabulary is importable from one place in
#: docs and tests; the decorator validates against it at import time.
__all__ = [
    "CONCURRENCY_PACKAGES",
    "RaceReport",
    "SHARED_STRUCTURES",
    "analyze_paths",
    "analyze_source",
    "concurrency_rules_apply",
    "render_races",
    "resolve_races_rule_filter",
]
