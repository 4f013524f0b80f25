"""Unit tests for the event vocabulary: ``Telemetry.emit``, ``bind`` and
``declare`` over :data:`repro.telemetry.EVENTS`, and a scan of ``src/``
that keeps the table the one place an event's counters are named."""

import ast
import os

import pytest

import repro
from repro.service.jobs import (
    EVENT_COMPLETED,
    EVENT_FAILED,
    EVENT_PROGRESS,
    EVENT_QUEUED,
    EVENT_STARTED,
)
from repro.telemetry import EVENTS, Telemetry, TelemetryConfig
from repro.telemetry import collector

SRC = os.path.dirname(repro.__file__)


class _Journal:
    """Collects what the handle writes, as ``EventJournal.emit`` takes it."""

    def __init__(self):
        self.lines = []

    def emit(self, kind, level="info", **fields):
        self.lines.append((kind, level, fields))


class TestEmit:
    def test_a_field_amount_bumps_by_the_field_and_skips_when_absent(self):
        telemetry = Telemetry()
        telemetry.emit("job.progress", job_id=0, chunk_runs=3)
        telemetry.emit("job.progress", job_id=1, generations=1)  # a search's progress
        counters = telemetry.snapshot()["counters"]
        assert counters == {"service.runs_served": 3}

    def test_a_zero_amount_still_creates_the_counter(self):
        telemetry = Telemetry()
        telemetry.emit("search.generation", generation=0, fresh=2, memo_hits=0, paid=2)
        assert telemetry.snapshot()["counters"] == {
            "search.generations": 1,
            "search.evaluations": 2,
            "search.simulations": 2,
            "search.memo_hits": 0,
        }

    def test_one_journal_line_at_the_rows_level(self):
        journal = _Journal()
        telemetry = Telemetry(journal=journal)
        telemetry.emit("cache.bypass", reason="unknown strategy")
        telemetry.emit("job.failed", job_id=2, error="boom")
        assert journal.lines == [
            ("cache.bypass", "warning", {"reason": "unknown strategy"}),
            ("job.failed", "error", {"job_id": 2, "error": "boom"}),
        ]

    def test_markers_follow_the_row_and_need_tracing(self):
        traced = Telemetry(TelemetryConfig(trace=True))
        traced.emit("supervisor.retry", anchor=0, attempt=1, backoff_s=0.0, error="x")
        traced.emit("supervisor.respawn", respawns=1)
        names = [(span[0], span[3]) for span in traced.tracer]
        assert names == [("supervisor.retry", 0)]
        untraced = Telemetry()
        untraced.emit("supervisor.retry", anchor=0, attempt=1, backoff_s=0.0, error="x")
        assert untraced.tracer is None

    def test_unknown_kinds_are_rejected(self):
        with pytest.raises(KeyError):
            Telemetry().emit("cache.lookup")


class TestBind:
    def test_bound_fields_stamp_journal_lines_and_markers(self):
        journal = _Journal()
        telemetry = Telemetry(TelemetryConfig(trace=True), journal=journal)
        chunk = telemetry.bind(job_id=3, skipped=None).bind(chunk_id=1)
        chunk.emit("supervisor.bisect", anchor=4, tasks=2, error="x")
        chunk.emit("cache.hit", fingerprint="f", chunk_id=9)  # an emitted field wins
        assert [fields for _, _, fields in journal.lines] == [
            {"job_id": 3, "chunk_id": 1, "anchor": 4, "tasks": 2, "error": "x"},
            {"job_id": 3, "chunk_id": 9, "fingerprint": "f"},
        ]
        (marker,) = list(telemetry.tracer)
        assert marker[4]["job_id"] == 3

    def test_a_view_shares_registry_tracer_and_journal(self):
        telemetry = Telemetry(TelemetryConfig(trace=True), journal=_Journal())
        view = telemetry.bind(job_id=0)
        assert view.metrics is telemetry.metrics
        assert view.tracer is telemetry.tracer
        assert view.journal is telemetry.journal
        assert view.config is telemetry.config
        view.emit("cache.hit", fingerprint="f")
        assert telemetry.snapshot()["counters"] == {"cache.hits": 1}


def test_declare_creates_the_kinds_counters_at_zero():
    telemetry = Telemetry()
    telemetry.declare("cache.bypass", "job.started")
    assert telemetry.snapshot()["counters"] == {
        "cache.bypasses": 0,
        "cache.bypass.fingerprint_unavailable": 0,
    }


# -- the table is the vocabulary -------------------------------------------------


def _modules():
    for directory, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield path, ast.parse(handle.read(), path)


def _call_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _emitted_kinds():
    """Every kind ``src/`` passes to an ``emit``/``_event`` call, with the
    service's ``f"job.{kind}"`` expanded over the JobEvent kinds."""
    kinds = set()
    job_kinds = (EVENT_QUEUED, EVENT_STARTED, EVENT_PROGRESS, EVENT_COMPLETED, EVENT_FAILED)
    for path, tree in _modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _call_name(node) in ("emit", "_event")):
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    kinds.add(arg.value)
                    break
                if isinstance(arg, ast.JoinedStr):
                    prefix = arg.values[0]
                    assert isinstance(prefix, ast.Constant) and prefix.value == "job.", path
                    kinds.update(f"job.{kind}" for kind in job_kinds)
                    break
    return kinds


def test_every_emitted_kind_has_a_row_and_every_row_is_emitted():
    assert _emitted_kinds() == set(EVENTS)
    assert len(EVENTS) == 18


def test_no_module_outside_the_table_names_an_event_counter():
    counters = {name for _, row, _ in EVENTS.values() for name in row}
    named = []
    for path, tree in _modules():
        if os.path.samefile(path, collector.__file__):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in counters:
                named.append(f"{os.path.relpath(path, SRC)}:{node.lineno} {node.value}")
    assert named == []
