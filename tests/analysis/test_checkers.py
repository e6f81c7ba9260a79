"""Fixture-driven checks: every REP rule fires on its bad fixture and
stays quiet on the good tree.

The fixture trees under ``fixtures/bad`` and ``fixtures/good`` mirror the
package layout (``engine/``, ``parallel/``, ``service/``) so the default
:class:`~repro.analysis.framework.AnalysisConfig` path scoping applies
verbatim.  Fixtures are parsed by the checkers, never imported.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.checkers import KNOWN_RULES, all_checkers
from repro.analysis.framework import run_analysis

FIXTURES = Path(__file__).parent / "fixtures"

#: file -> (rule expected to fire there, how many findings).
EXPECTED_BAD = {
    "engine/packing.py": ("REP001", 5),
    "engine/mutate.py": ("REP002", 4),
    "service/guarded.py": ("REP003", 3),
    "service/ordering.py": ("REP003", 1),
    "parallel/iterate.py": ("REP004", 4),
    "engine/clock.py": ("REP005", 4),
    "obs/relaxed.py": ("REP005", 2),
    "hygiene.py": ("REP000", 2),
}


@pytest.fixture(scope="module")
def bad_report():
    return run_analysis(FIXTURES / "bad", all_checkers())


@pytest.fixture(scope="module")
def good_report():
    return run_analysis(FIXTURES / "good", all_checkers())


@pytest.mark.parametrize("rel", sorted(EXPECTED_BAD))
def test_bad_fixture_fires_its_rule(bad_report, rel):
    rule, count = EXPECTED_BAD[rel]
    here = [finding for finding in bad_report.findings if finding.path == rel]
    assert {finding.rule for finding in here} == {rule}
    assert len(here) == count


def test_bad_tree_has_no_stray_findings(bad_report):
    assert {finding.path for finding in bad_report.findings} == set(EXPECTED_BAD)
    assert not bad_report.ok


def test_every_known_rule_is_exercised(bad_report):
    fired = {finding.rule for finding in bad_report.findings}
    assert fired == set(KNOWN_RULES)


def test_findings_carry_locations_and_severity(bad_report):
    for finding in bad_report.findings:
        assert finding.line >= 1
        assert finding.severity in ("error", "warning")
        assert finding.message
        rendered = finding.render()
        assert f"{finding.path}:{finding.line}" in rendered
        assert finding.rule in rendered


def test_good_tree_is_clean(good_report):
    assert good_report.ok, [finding.render() for finding in good_report.findings]


def test_good_tree_counts_the_justified_suppression(good_report):
    # fixtures/good/service/suppressed.py carries the one sanctioned noqa.
    assert good_report.suppressed == 1
