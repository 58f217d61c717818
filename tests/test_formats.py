"""Every versioned-document reader fails closed through one header check.

Each reader gets the same malformed inputs (non-JSON, a JSON array, a
JSON string, an empty object, a wrong format, a wrong version and a
header with no body) and must raise its own typed error, never a raw
``AttributeError``, ``KeyError`` or ``JSONDecodeError``.  The two JSONL
journals get the same inputs as file lines, plus open headers with the
wrong format and version.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import (
    AuditError,
    GraphError,
    LintError,
    SynopsisError,
    TelemetryError,
)
from repro.formats import NUMBER, read_document
from repro.graphs.io import graph_from_json
from repro.privlint import load_baseline, validate_callgraph
from repro.privlint.report import validate_lint_report
from repro.serving import ServingConfig, ShardPlan, synopsis_from_json
from repro.telemetry import (
    load_alert_rules,
    read_audit_log,
    read_event_log,
    validate_flight,
    validate_profile,
    validate_snapshot,
)
from repro.telemetry.audit import GENESIS_HASH, _chain_hash


def _from_file(reader):
    def read(text, tmp_path):
        path = tmp_path / "document.json"
        path.write_text(text)
        return reader(path)

    return read


def _from_text(reader):
    return lambda text, tmp_path: reader(text)


#: name -> (reader(text, tmp_path), format, version, error class)
READERS = {
    "callgraph": (
        _from_text(validate_callgraph), "repro-callgraph", 1, LintError
    ),
    "lint-report": (
        _from_text(validate_lint_report), "repro-lint", 2, LintError
    ),
    "lint-baseline": (
        _from_file(load_baseline), "repro-lint-baseline", 2, LintError
    ),
    "serving-config": (
        _from_text(ServingConfig.from_json),
        "repro-serving-config",
        1,
        GraphError,
    ),
    "synopsis": (
        _from_text(synopsis_from_json), "repro-synopsis", 1, SynopsisError
    ),
    "shard-plan": (
        _from_text(ShardPlan.from_json), "repro-shard-plan", 1, GraphError
    ),
    "graph": (_from_text(graph_from_json), "repro-graph", 1, GraphError),
    "profile": (
        _from_text(validate_profile), "repro-profile", 1, TelemetryError
    ),
    "flight": (
        _from_text(validate_flight), "repro-flight", 1, TelemetryError
    ),
    "snapshot": (
        _from_text(validate_snapshot),
        "repro-telemetry",
        1,
        TelemetryError,
    ),
    "alert-rules": (
        _from_text(load_alert_rules),
        "repro-alert-rules",
        1,
        TelemetryError,
    ),
}

MALFORMED = ["non-json", "array", "string", "empty-object",
             "wrong-format", "wrong-version", "header-only"]


def _malformed(case: str, fmt: str, version: int) -> str:
    return {
        "non-json": "{not json",
        "array": "[]",
        "string": '"x"',
        "empty-object": "{}",
        "wrong-format": json.dumps({"format": "nope", "version": version}),
        "wrong-version": json.dumps({"format": fmt, "version": 99}),
        "header-only": json.dumps({"format": fmt, "version": version}),
    }[case]


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("name", sorted(READERS))
def test_document_readers_fail_closed(name, case, tmp_path):
    reader, fmt, version, error = READERS[name]
    text = _malformed(case, fmt, version)
    if name == "serving-config" and case == "header-only":
        # Missing config fields take their defaults (documented
        # forward compatibility): a bare header is the default config.
        assert reader(text, tmp_path) == ServingConfig()
        return
    with pytest.raises(error) as excinfo:
        reader(text, tmp_path)
    assert type(excinfo.value) is error


def _open_record(kind_key, body_key, open_kind, body) -> dict:
    return {
        "seq": 0, "ts": 0.0, kind_key: open_kind, "epoch": None,
        "tenant": None, "trace_id": None, "span_id": None,
        body_key: body,
    }


def _event_header(body) -> str:
    return json.dumps(_open_record("event", "fields", "log.open", body))


def _audit_header(body) -> str:
    rec = _open_record("kind", "payload", "audit.open", body)
    rec["hash"] = _chain_hash(GENESIS_HASH, rec)
    return json.dumps(rec)


#: name -> (reader, format, open-header line builder, error class)
JOURNALS = {
    "events": (read_event_log, "repro-events", _event_header,
               TelemetryError),
    "audit": (read_audit_log, "repro-audit", _audit_header, AuditError),
}


@pytest.mark.parametrize(
    "case", MALFORMED + ["header-wrong-format", "header-wrong-version",
                         "header-not-object"]
)
@pytest.mark.parametrize("name", sorted(JOURNALS))
def test_journal_readers_fail_closed(name, case, tmp_path):
    reader, fmt, header, error = JOURNALS[name]
    line = {
        "header-wrong-format": lambda: header(
            {"format": "nope", "version": 1}
        ),
        "header-wrong-version": lambda: header(
            {"format": fmt, "version": 99}
        ),
        "header-not-object": lambda: header([fmt, 1]),
    }.get(case, lambda: _malformed(case, fmt, 1))()
    path = tmp_path / "journal.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(error) as excinfo:
        reader(path)
    assert type(excinfo.value) is error


@pytest.mark.parametrize("name", sorted(JOURNALS))
def test_journal_open_header_alone_is_a_valid_log(name, tmp_path):
    reader, fmt, header, _ = JOURNALS[name]
    path = tmp_path / "journal.jsonl"
    path.write_text(header({"format": fmt, "version": 1}) + "\n")
    assert len(reader(path)) == 1


class TestReadDocument:
    def test_returns_parsed_and_passes_through_parsed(self):
        doc = {"format": "f", "version": 2, "rows": [], "n": 3.5}
        fields = {"rows": list, "n": NUMBER}
        assert read_document(json.dumps(doc), "f", 2, LintError, "x",
                             fields) == doc
        assert read_document(doc, "f", (1, 2), LintError, "x",
                             fields) is doc

    @pytest.mark.parametrize(
        "doc, match",
        [
            ("{", "malformed JSON"),
            ("[1]", "JSON object"),
            ({"format": "g", "version": 1}, r"not an item .*format"),
            ({"format": "f", "version": 3}, "version 3 .*versions 1 and 2"),
            ({"format": "f", "version": True}, "version"),
            ({"format": "f", "version": 1, "n": True}, "'n' integer"),
            ({"format": "f", "version": 1, "n": 1.5}, "'n' integer"),
        ],
    )
    def test_one_message_template(self, doc, match):
        with pytest.raises(LintError, match=match) as excinfo:
            read_document(doc, "f", (1, 2), LintError, "item", {"n": int})
        assert str(excinfo.value).startswith("item invalid: ")

    def test_line_is_reported(self):
        with pytest.raises(AuditError, match=r"^log invalid \(line 4\)"):
            read_document([], "f", 1, AuditError, "log", line=4)
