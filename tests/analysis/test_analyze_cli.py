"""The ``repro analyze`` subcommand: exit codes, formats, rule filters and
the self-run guarantee that the shipped package stays clean."""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.analysis.checkers import all_checkers
from repro.analysis.framework import run_analysis
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_analyze_default_package_is_clean(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_self_run_analysis_reports_ok():
    package_root = Path(repro.__file__).resolve().parent
    report = run_analysis(package_root, all_checkers())
    assert report.ok, [finding.render() for finding in report.findings]
    # The three sanctioned suppressions (harness result table, double-checked
    # postings build, mutation-log record timestamp) are counted, keeping the
    # inventory visible.
    assert report.suppressed == 3


def test_analyze_bad_fixtures_exits_nonzero(capsys):
    assert main(["analyze", str(FIXTURES / "bad")]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out and "findings" in out


def test_analyze_json_format(capsys):
    assert main(["analyze", "--format", "json", str(FIXTURES / "bad")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["findings"]


def test_analyze_rules_filter(capsys):
    assert main(["analyze", "--rules", "REP005", str(FIXTURES / "bad")]) == 1
    payload_lines = capsys.readouterr().out.splitlines()
    flagged = [line for line in payload_lines if "REP" in line and ":" in line]
    assert flagged
    assert all("REP005" in line or "REP000" in line for line in flagged)


def test_analyze_unknown_rule_is_a_usage_error(capsys):
    # REP006 (the retired deprecated-shim rule) is as unknown as REP999.
    for rule in ("REP999", "REP006"):
        assert main(["analyze", "--rules", rule]) == 2
        assert "unknown rule" in capsys.readouterr().err


def test_analyze_missing_path_is_a_usage_error(capsys):
    assert main(["analyze", "no/such/path"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_analyze_package_subtree_keeps_rule_scoping(capsys):
    # engine/backend.py is the sanctioned NumPy import site; analyzing the
    # engine subtree must keep paths rooted at the package so the
    # whitelist still applies.
    package_root = Path(repro.__file__).resolve().parent
    assert main(["analyze", str(package_root / "engine")]) == 0
    assert "0 findings" in capsys.readouterr().out
