"""Pieces shared by the workloads: tasks, oracle failures and the in-process
CLI call."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from tracing import Tracer


class OracleMismatch(Exception):
    """A task returned an output that disagrees with its oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


@dataclass
class Task:
    """One user-sized call plus its oracle.  ``fn`` returns None when the
    output passed its oracle, or the name of a typed outcome (``capped``,
    ``caustic``) that is counted on its own and is not a failure."""
    name: str
    fn: Callable[[Tracer], Optional[str]]


@dataclass
class Workload:
    name: str
    tasks: List[Task]
    # the stated sizes: caps, truncation orders, grid and loop counts
    sizes: Dict[str, object]
    # exact-layer probes for the traced run, on inputs the tasks produced
    probe: Callable[[Tracer], Dict[str, float]]
    # inputs the tasks produced, filled in while they run
    produced: Dict[str, list] = field(default_factory=dict)


def run_cli(tr: Tracer, argv: List[str]) -> dict:
    """``frobenii.cli.main(argv)`` with its JSON report captured; the exit
    code must be 0 and the status PASS."""
    from frobenii import cli
    buf = io.StringIO()
    with tr.span("cli." + "_".join(argv[:2]).replace("-", "_")):
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    text = buf.getvalue()
    tr.count("cli.commands")
    tr.count("cli.report_bytes", len(text.encode("utf-8")))
    expect(code == 0, f"{' '.join(argv)}: exit code {code}")
    report = json.loads(text)
    expect(report.get("status") == "PASS",
           f"{' '.join(argv)}: status {report.get('status')}")
    return report


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
