"""The checker framework behind ``repro analyze``.

Design goals, in order:

1. **Zero dependencies.**  Everything runs on the stdlib :mod:`ast`; the
   suite must work on the no-NumPy CI leg and inside the repo's own test
   run without installing anything.
2. **Findings are data.**  A :class:`Finding` is a frozen record with a
   rule ID, severity, location and message; renderers (text for humans,
   JSON for tooling) are pure functions over the report.
3. **Suppression is expensive on purpose.**  ``# repro: noqa REPxxx --
   <why>`` silences one rule on one line and *requires* the justification
   text; a blanket ``noqa`` or one without a reason is itself a finding
   (rule ``REP000``), so the suppression inventory stays reviewable.

A :class:`Checker` sees every loaded :class:`SourceFile` once
(:meth:`Checker.check_file`) and may emit cross-file findings at the end
(:meth:`Checker.finish` -- the lock-order-cycle analysis needs the whole
acquisition graph).  ``run_analysis`` wires loading, checking, suppression
and ordering together; the CLI and the self-run test both call it.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Severity levels, in increasing order of concern.  Both fail the build;
#: the split exists so renderers and future tooling can triage.
SEVERITIES = ("warning", "error")

#: ``# repro: noqa REP001`` / ``# repro: noqa REP001, REP003 -- reason``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b"  # the marker
    r"(?P<rules>[^-#]*?)"  # optional rule list
    r"(?:--\s*(?P<why>.*?))?\s*$"  # optional justification
)
_RULE_ID_RE = re.compile(r"REP\d{3}")


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # repo-relative, posix separators
    line: int  # 1-based
    col: int  # 0-based (ast convention)
    rule: str  # "REP001"
    severity: str  # "error" | "warning"
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: noqa`` directive."""

    line: int
    rules: Tuple[str, ...]  # empty = blanket (invalid, reported as REP000)
    justification: str


class SourceFile:
    """One parsed source file plus its suppression directives."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        #: Path relative to the analysis root, posix separators -- the
        #: coordinate every path-scoped rule (and every finding) uses.
        self.rel = rel
        self.text = text
        self.tree: ast.Module = ast.parse(text, filename=rel)
        self.suppressions: Dict[int, Suppression] = {}
        self.bad_suppressions: List[Finding] = []
        self._parse_noqa()

    def _parse_noqa(self) -> None:
        # Only genuine comments count: a docstring *describing* the noqa
        # syntax must not register (or be flagged) as a directive.
        for lineno, comment in self._comments():
            match = _NOQA_RE.search(comment)
            if match is None:
                continue
            rules = tuple(_RULE_ID_RE.findall(match.group("rules") or ""))
            why = (match.group("why") or "").strip()
            if not rules:
                self.bad_suppressions.append(
                    Finding(
                        self.rel,
                        lineno,
                        0,
                        "REP000",
                        "error",
                        "blanket 'repro: noqa' is not allowed; name the "
                        "suppressed rule(s), e.g. '# repro: noqa REP001 -- why'",
                    )
                )
                continue
            if not why:
                self.bad_suppressions.append(
                    Finding(
                        self.rel,
                        lineno,
                        0,
                        "REP000",
                        "error",
                        f"suppression of {', '.join(rules)} lacks a "
                        "justification ('# repro: noqa REPxxx -- why')",
                    )
                )
                continue
            self.suppressions[lineno] = Suppression(lineno, rules, why)

    def _comments(self) -> List[Tuple[int, str]]:
        """``(line, text)`` for every comment token (never string contents)."""
        out: List[Tuple[int, str]] = []
        try:
            for token in tokenize.generate_tokens(io.StringIO(self.text).readline):
                if token.type == tokenize.COMMENT and "repro:" in token.string:
                    out.append((token.start[0], token.string))
        except tokenize.TokenError:  # unterminated constructs; ast already parsed
            pass
        return out

    def suppresses(self, finding: Finding) -> bool:
        directive = self.suppressions.get(finding.line)
        return directive is not None and finding.rule in directive.rules


@dataclasses.dataclass
class AnalysisConfig:
    """Path-scoped knobs for the rule suite.

    Paths are relative to the analysis root (the ``repro`` package
    directory in production; a fixture tree in tests) with posix
    separators.  Entries ending in ``/`` are prefixes, others exact files.
    """

    #: REP001: the only module allowed to import NumPy.
    backend_module: str = "engine/backend.py"
    #: REP002: attribute names of interned columns / packed provenance.
    #: ``interned_rows``/``dead_tids`` are the durable mirror of the
    #: interning table (snapshot sections): same append-only contract,
    #: same tid-stability argument.  ``storage/`` only ever constructs
    #: them, so it needs no whitelist entry.
    protected_columns: Tuple[str, ...] = (
        "ref_columns",
        "witness_outputs",
        "output_rows",
        "rows",
        "ids",
        "interned_rows",
        "dead_tids",
    )
    #: REP002: modules that own the whitelisted append/compact sites.
    append_whitelist: Tuple[str, ...] = (
        "engine/delta.py",
        "engine/columnar.py",
    )
    #: REP004: attribute names known to hold sets (``atom.attribute_set``).
    set_attribute_names: Tuple[str, ...] = ("attribute_set",)
    #: REP004: packing paths where iteration order reaches results.
    determinism_paths: Tuple[str, ...] = (
        "parallel/",
        "engine/columnar.py",
        "engine/delta.py",
        "engine/evaluate.py",
        "engine/provenance.py",
    )
    #: REP005: engine code that must stay wall-clock- and RNG-free.
    #: ``storage/`` is held to the same bar: recovery replays bytes into
    #: byte-identical sessions, so nothing on that path may read ambient
    #: state -- the one sanctioned wall-time site is the log-record
    #: timestamp in ``MutationLog.now()`` (suppressed in place).
    wallclock_paths: Tuple[str, ...] = ("engine/", "parallel/", "storage/")
    #: REP005 relaxed scope: monotonic clocks are the whole point of the
    #: tracing layer, but wall time (``time.time``, ``datetime.now``)
    #: stays banned so span offsets never depend on ambient state.
    wallclock_relaxed_paths: Tuple[str, ...] = ("obs/",)
    @staticmethod
    def path_matches(rel: str, selectors: Sequence[str]) -> bool:
        """Whether ``rel`` is selected (prefix for ``x/``, else exact)."""
        for selector in selectors:
            if selector.endswith("/"):
                if rel.startswith(selector):
                    return True
            elif rel == selector:
                return True
        return False


class Checker:
    """Base class for one rule (or one family sharing a rule ID)."""

    #: e.g. ``"REP001"``; used by ``--rules`` filtering and suppression.
    rule_id: str = "REP999"
    title: str = ""
    severity: str = "error"

    def begin(self, config: AnalysisConfig) -> None:
        """Reset per-run state (checkers are reused across runs)."""

    def check_file(self, source: SourceFile, config: AnalysisConfig) -> Iterable[Finding]:
        """Findings local to one file."""
        return ()

    def finish(self, config: AnalysisConfig) -> Iterable[Finding]:
        """Cross-file findings, emitted after every file was seen."""
        return ()

    def finding(self, source_rel: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            source_rel,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            self.rule_id,
            self.severity,
            message,
        )


@dataclasses.dataclass
class AnalysisReport:
    """The outcome of one ``run_analysis`` call."""

    findings: List[Finding]
    files_checked: int
    rules: Tuple[str, ...]
    suppressed: int

    @property
    def ok(self) -> bool:
        return not self.findings


def load_source_files(
    root: Path, skip: Sequence[str] = (), only: Sequence[str] = ()
) -> List[SourceFile]:
    """Every ``*.py`` under ``root`` (sorted), parsed and noqa-scanned.

    ``skip`` and ``only`` hold root-relative selectors (same syntax as
    :meth:`AnalysisConfig.path_matches`): ``skip`` excludes matches, a
    non-empty ``only`` restricts the run to matches.  The CLI uses ``only``
    to analyze a subtree while keeping paths (and therefore the
    path-scoped rules) rooted at the package directory.
    """
    root = Path(root)
    if root.is_file():
        rel = root.name
        return [SourceFile(root, rel, root.read_text(encoding="utf-8"))]
    sources = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if AnalysisConfig.path_matches(rel, skip):
            continue
        if only and not AnalysisConfig.path_matches(rel, only):
            continue
        sources.append(SourceFile(path, rel, path.read_text(encoding="utf-8")))
    return sources


def run_analysis(
    root: Path,
    checkers: Sequence[Checker],
    config: Optional[AnalysisConfig] = None,
    rules: Optional[Sequence[str]] = None,
    skip: Sequence[str] = (),
    only: Sequence[str] = (),
) -> AnalysisReport:
    """Run ``checkers`` over every python file under ``root``.

    ``rules`` optionally restricts the run to a subset of rule IDs
    (``REP000`` suppression hygiene always runs: a malformed noqa must not
    be hideable by deselecting it).  Suppressed findings are counted but
    not reported; suppression requires a justification, which
    :class:`SourceFile` enforces at parse time.
    """
    config = config or AnalysisConfig()
    selected = [
        checker
        for checker in checkers
        if rules is None or checker.rule_id in rules
    ]
    sources = load_source_files(root, skip=skip, only=only)
    findings: List[Finding] = []
    suppressed = 0
    for checker in selected:
        checker.begin(config)
    for source in sources:
        findings.extend(source.bad_suppressions)
        for checker in selected:
            for finding in checker.check_file(source, config):
                if source.suppresses(finding):
                    suppressed += 1
                else:
                    findings.append(finding)
    by_rel = {source.rel: source for source in sources}
    for checker in selected:
        for finding in checker.finish(config):
            source = by_rel.get(finding.path)
            if source is not None and source.suppresses(finding):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort()
    return AnalysisReport(
        findings=findings,
        files_checked=len(sources),
        rules=tuple(checker.rule_id for checker in selected),
        suppressed=suppressed,
    )


def render_text(report: AnalysisReport) -> str:
    """Human-readable rendering (one finding per line plus a summary)."""
    lines = [finding.render() for finding in report.findings]
    noun = "finding" if len(report.findings) == 1 else "findings"
    lines.append(
        f"{len(report.findings)} {noun} in {report.files_checked} files "
        f"({report.suppressed} suppressed)"
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable rendering (stable key order for diffing)."""
    payload = {
        "findings": [finding.to_json() for finding in report.findings],
        "files_checked": report.files_checked,
        "rules": list(report.rules),
        "suppressed": report.suppressed,
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
