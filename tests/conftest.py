"""Shared fixtures plus a per-criterion summary for the acceptance module."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import sscorpus

FIXTURES = Path(__file__).parent / "fixtures"

_acceptance_outcomes: dict[str, tuple[str, str]] = {}


@pytest.fixture(scope="session")
def child_env() -> dict:
    """The environment for a child interpreter that imports this checkout's ``sscorpus``."""
    src = str(Path(sscorpus.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def metric_fixture() -> list[dict]:
    data = json.loads((FIXTURES / "metric_eval_100.json").read_text(encoding="utf-8"))
    return data["items"]


@pytest.fixture(scope="session")
def metric_expected() -> dict:
    return json.loads((FIXTURES / "metric_eval_100.expected.json").read_text(encoding="utf-8"))


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        detail = ""
        if report.outcome == "skipped" and isinstance(report.longrepr, tuple):
            detail = report.longrepr[2]
        _acceptance_outcomes[name] = (report.outcome, detail)
    elif report.when == "setup" and report.outcome == "skipped":
        detail = report.longrepr[2] if isinstance(report.longrepr, tuple) else ""
        _acceptance_outcomes[name] = ("skipped", detail)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome, detail = _acceptance_outcomes[name]
        label = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(outcome, outcome)
        line = f"{label}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
