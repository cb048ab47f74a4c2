"""The public runtime/analysis API must stay documented.

Runs the same lint CI uses (``tools/lint_docstrings.py``) so a missing
docstring fails locally before it fails in the workflow.
"""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_docstrings  # noqa: E402  (needs the tools dir on the path)


def test_default_paths_fully_documented():
    """runtime, analysis, sim, mac, backends, core and testbed —
    everything CI lints."""
    violations = lint_docstrings.run(
        [str(REPO_ROOT / path) for path in lint_docstrings.DEFAULT_PATHS])
    assert violations == []


def test_default_paths_cover_both_dcf_backends():
    assert "src/repro/sim" in lint_docstrings.DEFAULT_PATHS
    assert "src/repro/mac" in lint_docstrings.DEFAULT_PATHS
    assert "src/repro/core" in lint_docstrings.DEFAULT_PATHS
    assert "src/repro/testbed" in lint_docstrings.DEFAULT_PATHS


def test_lint_flags_missing_docstrings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text('"""Module doc."""\n\ndef exposed():\n    pass\n')
    violations = lint_docstrings.run([str(bad)])
    assert len(violations) == 1
    assert "exposed" in violations[0]


def test_lint_ignores_private_names(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text('"""Module doc."""\n\ndef _helper():\n    pass\n')
    assert lint_docstrings.run([str(ok)]) == []


def test_lint_rejects_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        lint_docstrings.run([str(tmp_path / "nope")])
