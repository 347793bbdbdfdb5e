"""Tests for the repro.analysis static-analysis engine.

Each checker is exercised against a fixture tree under
``tests/analysis_fixtures/repro/`` that seeds violations at known lines
(annotated inline in the fixtures).  The tests assert every rule fires
at exactly the expected (path, line) pairs and nowhere else, that
``# repro: ignore[...]`` suppressions work, that the baseline round-trips
(active / baselined / stale), and that the real ``src/repro`` tree is
clean so the CI gate holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Analyzer, Baseline, Severity
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.engine import _parse_suppressions
from repro.analysis.registry import all_checkers

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "analysis_fixtures"
SRC_ROOT = TESTS_DIR.parent / "src"

# Ground truth: every (rule, logical path, line) the fixture tree seeds.
EXPECTED = {
    ("RP001", "repro/parallel/bad_shared.py", 7),
    ("RP001", "repro/parallel/bad_shared.py", 8),
    ("RP001", "repro/parallel/bad_shared.py", 9),
    ("RP001", "repro/parallel/bad_shared.py", 10),
    ("RP001", "repro/parallel/bad_shared.py", 23),
    ("RP001", "repro/parallel/bad_shared.py", 24),
    ("RP001", "repro/parallel/bad_shared.py", 33),
    ("RP002", "repro/core/bad_rng.py", 10),
    ("RP002", "repro/core/bad_rng.py", 11),
    ("RP002", "repro/core/bad_rng.py", 12),
    ("RP002", "repro/core/bad_rng.py", 13),
    ("RP002", "repro/core/bad_rng.py", 14),
    ("RP003", "repro/core/bad_dtype.py", 7),
    ("RP003", "repro/core/bad_dtype.py", 8),
    ("RP003", "repro/core/bad_dtype.py", 9),
    ("RP003", "repro/core/bad_dtype.py", 10),
    ("RP004", "repro/distributed/protocol.py", 1),
    ("RP004", "repro/distributed/runtime.py", 8),
    ("RP004", "repro/distributed/runtime.py", 18),
    ("RP004", "repro/distributed/runtime.py", 19),
    ("RP004", "repro/distributed/runtime.py", 22),
    ("RP005", "repro/core/config.py", 10),
    ("RP005", "repro/cli.py", 12),
    ("RP005", "repro/cli.py", 13),
    ("RP005", "repro/cli.py", 22),
    ("RP005", "repro/service/config.py", 9),
    ("RP005", "repro/service/http.py", 12),
    ("RP005", "repro/service/http.py", 16),
    ("RP006", "repro/checkpoint/bad_io.py", 8),
    ("RP006", "repro/checkpoint/bad_io.py", 10),
    ("RP006", "repro/checkpoint/bad_io.py", 12),
    ("RP006", "repro/checkpoint/bad_io.py", 13),
    ("RP006", "repro/checkpoint/bad_io.py", 14),
    ("RP007", "repro/service/bad_service.py", 21),
    ("RP007", "repro/service/bad_service.py", 22),
    ("RP007", "repro/service/bad_service.py", 23),
    ("RP008", "repro/service/bad_handlers.py", 7),
    ("RP008", "repro/service/bad_handlers.py", 11),
    ("RP008", "repro/service/bad_handlers.py", 16),
    ("RP008", "repro/service/bad_handlers.py", 20),
    ("RP008", "repro/distributed/bad_recovery.py", 7),
    ("RP008", "repro/service/bad_cluster.py", 24),
    ("RP008", "repro/service/bad_cluster.py", 32),
    ("RP008", "repro/versioning/bad_versions.py", 19),
    ("RP008", "repro/versioning/bad_versions.py", 23),
    ("RP009", "repro/service/bad_locks.py", 32),
    ("RP010", "repro/service/bad_cluster.py", 37),
    ("RP010", "repro/service/bad_cluster.py", 41),
    ("RP010", "repro/service/bad_cluster.py", 45),
    ("RP010", "repro/service/bad_cluster.py", 50),
    ("RP010", "repro/service/bad_order.py", 24),
    ("RP010", "repro/service/bad_order.py", 29),
    ("RP010", "repro/service/bad_order.py", 34),
    ("RP010", "repro/service/bad_order.py", 38),
    ("RP010", "repro/service/bad_service.py", 12),
    ("RP010", "repro/service/bad_service.py", 14),
    ("RP010", "repro/service/bad_service.py", 17),
    ("RP010", "repro/versioning/bad_versions.py", 47),
    ("RP010", "repro/versioning/bad_versions.py", 52),
    ("RP010", "repro/versioning/bad_versions.py", 57),
    ("RP011", "repro/core/bad_arena.py", 12),
    ("RP011", "repro/core/bad_arena.py", 18),
    ("RP011", "repro/core/bad_arena.py", 24),
    ("RP011", "repro/versioning/bad_versions.py", 67),
    ("RP011", "repro/versioning/bad_versions.py", 73),
}

# One suppressed violation per concrete-behavior rule, plus a second
# RP008 suppression in the cluster-router fixture and a third in the
# versioning fixture.
EXPECTED_SUPPRESSED = 11


@pytest.fixture(scope="module")
def fixture_report():
    return Analyzer(FIXTURES).run(baseline=None)


def _triples(diagnostics):
    return {(d.rule, d.path, d.line) for d in diagnostics}


# ---------------------------------------------------------------------------
# Per-rule firing: exactly the seeded lines, nothing else.
# ---------------------------------------------------------------------------


def test_fixture_tree_fires_exactly_the_seeded_violations(fixture_report):
    assert _triples(fixture_report.active) == EXPECTED


@pytest.mark.parametrize(
    "rule",
    ["RP001", "RP002", "RP003", "RP004", "RP005", "RP006", "RP007",
     "RP008", "RP009", "RP010", "RP011"],
)
def test_each_rule_fires_only_at_its_seeded_lines(fixture_report, rule):
    got = {t for t in _triples(fixture_report.active) if t[0] == rule}
    want = {t for t in EXPECTED if t[0] == rule}
    assert got == want


def test_every_rule_has_at_least_one_fixture(fixture_report):
    fired = {d.rule for d in fixture_report.active}
    assert fired == {c.rule for c in all_checkers()}


def test_diagnostics_carry_positions_and_messages(fixture_report):
    for diag in fixture_report.active:
        assert diag.line >= 1
        assert diag.col >= 1
        assert diag.message
        assert diag.severity is Severity.ERROR
        text = diag.format()
        assert f"{diag.path}:{diag.line}:" in text
        assert diag.rule in text


def test_clean_fixture_code_is_not_flagged(fixture_report):
    """Lines the fixtures mark as fine (locals, seeded RNG, modeled
    time, explicit dtypes, tracked sends) produce no diagnostics."""
    flagged = {(d.path, d.line) for d in fixture_report.active}
    fine = {
        ("repro/parallel/bad_shared.py", 11),  # private local array
        ("repro/parallel/bad_shared.py", 12),
        ("repro/parallel/bad_shared.py", 22),  # write to non-readonly param
        ("repro/core/bad_rng.py", 20),  # default_rng(seed)
        ("repro/core/bad_rng.py", 21),  # random.Random(seed)
        ("repro/core/bad_rng.py", 22),  # modeled-time comparison
        ("repro/core/bad_dtype.py", 15),  # explicit dtype
        ("repro/core/bad_dtype.py", 16),
        ("repro/distributed/runtime.py", 12),  # tracked WORK send
        ("repro/distributed/runtime.py", 17),  # receive arm
        ("repro/distributed/runtime.py", 21),  # broadcast arm
        ("repro/cli.py", 10),  # live flag
        ("repro/cli.py", 11),
        ("repro/service/http.py", 11),  # live serve flag
        ("repro/service/http.py", 15),  # known ServiceConfig kwarg
        ("repro/checkpoint/bad_io.py", 18),  # read-mode opens
        ("repro/checkpoint/bad_io.py", 20),
        ("repro/checkpoint/bad_io.py", 22),
        ("repro/service/bad_service.py", 28),  # bounded queue waits
        ("repro/service/bad_service.py", 29),
        ("repro/service/bad_service.py", 31),  # condition wait under lock
        ("repro/service/bad_service.py", 32),  # sleep outside any lock
        ("repro/service/bad_service.py", 33),  # non-queue receiver
        ("repro/service/bad_handlers.py", 27),  # handler reacts (call)
        ("repro/service/bad_handlers.py", 31),  # fallback assignment
        ("repro/service/bad_handlers.py", 35),  # re-raise
        ("repro/service/bad_handlers.py", 39),  # returns a default
        ("repro/service/bad_locks.py", 33),  # immutable config read
        ("repro/service/bad_locks.py", 38),  # helper inherits entry lock
        ("repro/service/bad_locks.py", 39),
        ("repro/service/bad_locks.py", 42),  # minority guard: no inference
        ("repro/service/bad_order.py", 43),  # consistent nesting order
        ("repro/service/bad_order.py", 48),
        ("repro/service/bad_order.py", 53),  # cond.wait releases its cond
        ("repro/service/bad_order.py", 57),  # bounded wait under lock
        ("repro/service/bad_cluster.py", 59),  # failover counted
        ("repro/service/bad_cluster.py", 67),  # shed re-raises
        ("repro/service/bad_cluster.py", 71),  # bounded catch-up wait
        ("repro/core/bad_arena.py", 30),  # .copy() escapes safely
        ("repro/core/bad_arena.py", 36),  # rebind into the same name
        ("repro/core/bad_arena.py", 42),  # dynamic buffer name
        ("repro/versioning/bad_versions.py", 33),  # torn record counted
        ("repro/versioning/bad_versions.py", 61),  # consistent lock order
        ("repro/versioning/bad_versions.py", 78),  # copied splice escape
    }
    assert not flagged & fine


# ---------------------------------------------------------------------------
# Suppressions.
# ---------------------------------------------------------------------------


def test_seeded_suppressions_are_honored(fixture_report):
    assert fixture_report.suppressed_count == EXPECTED_SUPPRESSED
    suppressed_sites = {
        ("RP001", "repro/parallel/bad_shared.py", 28),
        ("RP002", "repro/core/bad_rng.py", 29),
        ("RP003", "repro/core/bad_dtype.py", 21),
        ("RP006", "repro/checkpoint/bad_io.py", 28),
        ("RP007", "repro/service/bad_service.py", 39),
        ("RP008", "repro/service/bad_handlers.py", 46),
        ("RP008", "repro/service/bad_cluster.py", 77),
        ("RP008", "repro/versioning/bad_versions.py", 84),
        ("RP009", "repro/service/bad_locks.py", 49),
        ("RP010", "repro/service/bad_order.py", 61),
        ("RP011", "repro/core/bad_arena.py", 48),
    }
    assert not _triples(fixture_report.active) & suppressed_sites


def test_suppression_comment_parsing():
    lines = [
        "x = 1  # repro: ignore[RP003]",
        "y = 2  # repro: ignore[RP001, RP002]",
        "z = 3  # repro: ignore",
        "# a standalone comment. # repro: ignore[RP002]",
        "if clock() > deadline:",
        "plain = 4",
    ]
    sup = _parse_suppressions(lines)
    assert sup[1] == {"RP003"}
    assert sup[2] == {"RP001", "RP002"}
    assert sup[3] == {"*"}  # bare ignore silences every rule
    assert sup[5] == {"RP002"}  # standalone comment covers the next line
    assert 4 not in sup and 6 not in sup


@pytest.mark.parametrize(
    "rule,rel",
    [
        ("RP009", "repro/service/bad_locks.py"),
        ("RP010", "repro/service/bad_order.py"),
        ("RP011", "repro/core/bad_arena.py"),
    ],
)
def test_unsuppressing_a_seeded_bug_fails_strict(tmp_path, rule, rel):
    """Each concurrency rule demonstrably catches its bug class: strip
    the fixture's suppression comment and the strict gate fails on the
    resurfaced finding."""
    dst = tmp_path / rel
    dst.parent.mkdir(parents=True)
    dst.write_text(
        (FIXTURES / rel).read_text().replace(f"# repro: ignore[{rule}]", "")
    )
    report = Analyzer(tmp_path).run(baseline=None)
    assert report.suppressed_count == 0
    assert any(d.rule == rule for d in report.active)
    assert report.exit_code(strict=True) == 1


def test_suppression_scoping_is_per_rule(tmp_path):
    bad = tmp_path / "repro" / "core" / "mixed.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def f(n):\n"
        "    return np.arange(n)  # repro: ignore[RP002]\n"
    )
    report = Analyzer(tmp_path).run(baseline=None)
    # The RP002 suppression must not silence the RP003 finding.
    assert _triples(report.active) == {("RP003", "repro/core/mixed.py", 5)}
    assert report.suppressed_count == 0


# ---------------------------------------------------------------------------
# Scoping: package rules only fire inside their packages.
# ---------------------------------------------------------------------------


def test_scoped_rules_ignore_out_of_scope_packages(tmp_path):
    out = tmp_path / "repro" / "experiments" / "sweep.py"
    out.parent.mkdir(parents=True)
    out.write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def jitter(n):\n"
        "    return np.random.rand(n), np.arange(n)\n"
    )
    report = Analyzer(tmp_path).run(baseline=None)
    # experiments/ is outside both the RP002 and RP003 scopes.
    assert report.active == []


def test_logical_path_scoping_matches_real_tree(fixture_report):
    """Fixture modules under tests/analysis_fixtures/repro/ scope exactly
    like src/repro/ modules (the engine keys on the last 'repro' dir)."""
    project, _ = Analyzer(FIXTURES).collect()
    module = project.find("core/bad_rng.py")
    assert module is not None
    assert module.package == "core"
    assert module.logical_path() == "core/bad_rng.py"


# ---------------------------------------------------------------------------
# Parse errors become diagnostics, not crashes.
# ---------------------------------------------------------------------------


def test_syntax_error_becomes_rp000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = Analyzer(tmp_path).run(baseline=None)
    assert [d.rule for d in report.active] == ["RP000"]
    assert "syntax error" in report.active[0].message


# ---------------------------------------------------------------------------
# Baseline: split, stale detection, round-trip.
# ---------------------------------------------------------------------------


def test_baseline_split_and_staleness(fixture_report, tmp_path):
    # Baseline half the findings; the rest must stay active.
    ordered = sorted(fixture_report.active)
    half = ordered[: len(ordered) // 2]
    baseline = Baseline.from_diagnostics(half)
    report = Analyzer(FIXTURES).run(baseline=baseline)
    assert _triples(report.baselined) == _triples(half)
    assert _triples(report.active) == EXPECTED - _triples(half)
    assert report.stale_baseline == []

    # A baseline entry nothing matches is reported stale.
    stale_entry = "RP999::repro/nowhere.py::ghost finding"
    baseline.entries.add(stale_entry)
    report = Analyzer(FIXTURES).run(baseline=baseline)
    assert report.stale_baseline == [stale_entry]
    # Stale entries pass by default but fail the strict (CI) gate when
    # nothing else is wrong.
    clean = Analyzer(SRC_ROOT).run(
        baseline=Baseline(entries={stale_entry})
    )
    assert clean.exit_code(strict=False) == 0
    assert clean.exit_code(strict=True) == 1


def test_baseline_fingerprints_survive_line_shifts(fixture_report):
    """Fingerprints exclude line numbers, so reformatting above a
    baselined finding does not resurrect it."""
    diag = sorted(fixture_report.active)[0]
    shifted = type(diag)(
        path=diag.path,
        line=diag.line + 40,
        col=diag.col,
        rule=diag.rule,
        message=diag.message,
    )
    assert shifted.fingerprint == diag.fingerprint


def test_baseline_save_load_roundtrip(fixture_report, tmp_path):
    path = tmp_path / "analysis_baseline.json"
    Baseline.from_diagnostics(fixture_report.active).save(path)
    loaded = Baseline.load(path)
    report = Analyzer(FIXTURES).run(baseline=loaded)
    assert report.active == []
    assert _triples(report.baselined) == EXPECTED
    assert report.exit_code(strict=True) == 0
    # The on-disk format is versioned JSON.
    data = json.loads(path.read_text())
    assert data["version"] == 1
    assert len(data["entries"]) == len(set(d.fingerprint
                                           for d in fixture_report.active))


# ---------------------------------------------------------------------------
# CLI entry point.
# ---------------------------------------------------------------------------


def test_cli_exit_codes_and_json(capsys):
    code = analysis_main([str(FIXTURES), "--baseline", "none", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    got = {
        (d["rule"], d["path"], d["line"]) for d in out["diagnostics"]
    }
    assert got == EXPECTED
    assert out["suppressed"] == EXPECTED_SUPPRESSED


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("VALUE = 1\n")
    assert analysis_main([str(tmp_path), "--baseline", "none"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    code = analysis_main([str(tmp_path / "nope"), "--baseline", "none"])
    assert code == 2


def test_cli_write_baseline_then_gate(tmp_path, capsys):
    target = tmp_path / "analysis_baseline.json"
    code = analysis_main(
        [str(FIXTURES), "--baseline", str(target), "--write-baseline"]
    )
    capsys.readouterr()
    assert code == 0 and target.exists()
    # With the freshly written baseline the same tree now gates clean.
    assert analysis_main([str(FIXTURES), "--baseline", str(target)]) == 0


def test_cli_list_rules(capsys):
    assert analysis_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "RP001", "RP002", "RP003", "RP004", "RP005", "RP006", "RP007",
        "RP008", "RP009", "RP010", "RP011",
    ):
        assert rule in out


def test_module_entry_point_runs_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=str(SRC_ROOT.parent),
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "RP001" in proc.stdout


# ---------------------------------------------------------------------------
# Self-gate: the real source tree is clean with an empty baseline.
# ---------------------------------------------------------------------------


def test_src_tree_is_clean_under_strict_gate():
    report = Analyzer(SRC_ROOT).run(baseline=None)
    assert report.active == [], "\n".join(
        d.format() for d in report.active
    )
    assert report.exit_code(strict=True) == 0
    assert report.checked_files > 50  # the whole tree was really walked


def test_committed_baseline_is_empty_by_policy():
    baseline_path = TESTS_DIR.parent / "analysis_baseline.json"
    assert baseline_path.exists()
    assert Baseline.load(baseline_path).entries == set()
