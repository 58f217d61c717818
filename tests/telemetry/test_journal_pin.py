"""Byte-identity pins for the two JSONL journals.

A seeded sharded ``replay_rush_hour`` writes an audit log and an event
log with the wall clock frozen, so every byte of both files is a
function of the code alone.  The digests were recorded before the
audit and event logs moved onto one journal core; any change to the
on-disk schema, the key order of the canonical JSON, the hash input or
the header records changes them.
"""

from __future__ import annotations

import hashlib
import time

from repro import Rng
from repro.serving import replay_rush_hour
from repro.telemetry.audit import AuditLog, read_audit_log, verify_audit_log
from repro.telemetry.logging import read_event_log

FROZEN_TS = 1754500000.125

AUDIT_DIGEST = (
    "98232e5d2fdbc67c3e7d272429fbad0569f83f79ec4c4a136b4cbe89b0386dd5"
)
EVENTS_DIGEST = (
    "cd987cb801df4238ab57962adb0d6168fc9bd058f611e4f6d6a12344564e4a19"
)
RESUMED_DIGEST = (
    "0b105f3bb0c9c5425dd0f5aca848775655f3508af675aba2c1aa8ff3a1b5aa53"
)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _seeded_journals(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FROZEN_TS)
    audit = tmp_path / "audit.jsonl"
    events = tmp_path / "events.jsonl"
    replay_rush_hour(
        Rng(11), rows=6, cols=6, eps=1.0, epochs=2,
        queries_per_epoch=40, shards=2,
        audit_log=str(audit), event_log=str(events),
    )
    return audit, events


def test_pinned_journal_digests(tmp_path, monkeypatch):
    audit, events = _seeded_journals(tmp_path, monkeypatch)
    assert _digest(audit) == AUDIT_DIGEST
    assert _digest(events) == EVENTS_DIGEST
    assert len(read_event_log(events)) > 1


def test_pinned_audit_log_resumes_and_verifies(tmp_path, monkeypatch):
    audit, _ = _seeded_journals(tmp_path, monkeypatch)
    assert _digest(audit) == AUDIT_DIGEST  # the pinned bytes
    before = read_audit_log(audit)
    with AuditLog(audit) as log:
        # The resumed chain continues after a fresh audit.open header.
        assert log.seq == len(before) + 1
        log.record("batch.serve", queries=3, unique=2, cache_hits=1)
    after = read_audit_log(audit)
    assert after[: len(before)] == before
    assert after[len(before)]["payload"] == {
        "format": "repro-audit", "version": 1, "resumed": True,
    }
    assert verify_audit_log(after)["verified"] is True
    assert _digest(audit) == RESUMED_DIGEST
