"""Golden reports of the shipped scenarios under every verb.

Each ``scenarios/*.yaml`` runs in-process under ``run``, ``sweep``,
``compare`` and ``plan``.  The exit code, standard error, the warnings
raised and the report outside ``metadata`` (which holds the timestamp) must
equal ``tests/golden/<scenario>.<verb>.txt`` byte for byte.  A verb a
scenario does not support is part of the record too: it exits 2 with a
fixed message.

After a change that is meant to move a report, rewrite the files with::

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from eprbus.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))
GOLDEN = Path(__file__).resolve().parent / "golden"
VERBS = ("run", "sweep", "compare", "plan")


def record(scenario: Path, verb: str) -> str:
    """Exit code, stderr, warnings and report of one CLI call, as one text."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
            stderr
        ), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([verb, "--scenario", str(scenario), "--out", str(out)])
        report = out.read_text() if out.exists() else ""
    if report.startswith("{"):
        payload = json.loads(report)
        payload.pop("metadata")
        report = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    raised = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return (
        f"exit: {code}\n--- stderr\n{stderr.getvalue()}--- warnings\n{raised}"
        f"--- report\n{report}"
    )


def golden_path(scenario: Path, verb: str) -> Path:
    return GOLDEN / f"{scenario.stem}.{verb}.txt"


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda path: path.stem)
def test_report_matches_golden(scenario, verb):
    assert record(scenario, verb) == golden_path(scenario, verb).read_text()


def test_every_scenario_has_goldens():
    expected = {golden_path(s, verb).name for s in SCENARIOS for verb in VERBS}
    assert {path.name for path in GOLDEN.glob("*.txt")} == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for scenario in SCENARIOS:
        for verb in VERBS:
            golden_path(scenario, verb).write_text(record(scenario, verb))
    sys.exit(0)
