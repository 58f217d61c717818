"""The append-only JSONL journal core of the audit and event logs.

Both logs are one JSON object per line with gapless sequence numbers
from 0, a wall-clock timestamp, ``epoch`` and ``tenant``, the
``(trace_id, span_id)`` of the enclosing tracer span, and an open
header as record 0.  :class:`Journal` does that once — file and flush,
sequence numbers, tracer ids, the in-memory records and the fail-closed
reader.  A subclass names its schema and may seal each record (the
audit log's hash chain).  Lines are canonical JSON (sorted keys,
compact separators).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Mapping, Tuple, Type

from ..formats import invalid, read_document

__all__ = ["Journal"]


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def _canonical(doc: Mapping[str, object]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Journal:
    """An append-only JSONL log; in memory only with ``path=None``,
    else every record is appended to the file and flushed.  A journal
    that ``RESUMES`` reads an existing non-empty file back
    (fail-closed) and appends to it; otherwise the file is
    overwritten."""

    enabled = True
    #: The subclass schema: open-header format and version, the name
    #: in error messages, the reader's exception, the record keys of
    #: the kind and the body, the open-header kind, extra keys, and
    #: whether an existing file is resumed.
    FORMAT: str
    VERSION: int
    WHAT: str
    ERROR: Type[Exception]
    KIND_KEY: str
    BODY_KEY: str
    OPEN_KIND: str
    EXTRA_KEYS: Tuple[str, ...] = ()
    RESUMES = False

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._records: List[Dict[str, object]] = []
        self._file = None
        self._tracer = None
        if self._path is not None:
            if self.RESUMES and os.path.exists(self._path) and (
                os.path.getsize(self._path) > 0
            ):
                self._records = self.read(self._path)
            mode = "a" if self._records else "w"
            self._file = open(self._path, mode, encoding="utf-8")
        self._seq = len(self._records)

    @property
    def path(self) -> str | None:
        """The backing JSONL file, if any."""
        return self._path

    @property
    def seq(self) -> int:
        """The sequence number the next record will get."""
        return self._seq

    def bind_tracer(self, tracer) -> None:
        """Correlate future records with ``tracer``'s open spans."""
        if self.enabled:
            self._tracer = tracer

    def _seal(self, rec: Dict[str, object]) -> None:
        """Subclass hook: finish a record before it is appended."""

    def _append(
        self, kind: str, epoch, tenant, body: Mapping[str, object]
    ) -> Dict[str, object]:
        trace_id = span_id = None
        if self._tracer is not None:
            trace_id, span_id = self._tracer.current_ids()
        rec: Dict[str, object] = {
            "seq": self._seq,
            "ts": time.time(),  # privlint: ignore[PL4] observational record timestamp
            self.KIND_KEY: kind,
            "epoch": epoch,
            "tenant": tenant,
            "trace_id": trace_id,
            "span_id": span_id,
            self.BODY_KEY: {k: _json_safe(v) for k, v in body.items()},
        }
        self._seal(rec)
        self._seq += 1
        self._records.append(rec)
        if self._file is not None:
            self._file.write(_canonical(rec) + "\n")
            self._file.flush()
        return rec

    def records(self) -> List[Dict[str, object]]:
        """Every record (including any resumed from disk), oldest
        first."""
        return list(self._records)

    def tail(self, n: int = 10) -> List[Dict[str, object]]:
        """The most recent ``n`` records."""
        return list(self._records[-n:]) if n > 0 else []

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        """Flush and close the backing file (in-memory records stay)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @classmethod
    def _fail(cls, problem: str, line: int | None = None) -> Exception:
        return invalid(cls.ERROR, cls.WHAT, problem, line)

    @classmethod
    def _check_link(cls, prev, rec, line: int) -> None:
        """Subclass hook: check a record against its predecessor."""

    @classmethod
    def read(cls, path: str | os.PathLike) -> List[Dict[str, object]]:
        """Parse and :meth:`validate` a journal file; fail-closed."""
        numbered: List[Tuple[int, object]] = []
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    numbered.append((number, json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise cls._fail(
                        f"malformed JSON ({exc.msg}) — truncated or "
                        "corrupted record",
                        number,
                    ) from exc
        return cls.validate(numbered)

    @classmethod
    def validate(
        cls, numbered: Iterable[Tuple[int, object]]
    ) -> List[Dict[str, object]]:
        """Check ``(line, record)`` pairs: objects with every schema
        key, gapless sequence numbers from 0, :meth:`_check_link`, and
        record 0 the open header with a readable format and version.
        Returns the records as plain dicts."""
        required = (
            "seq", "ts", cls.KIND_KEY, "epoch", "tenant", "trace_id",
            "span_id", cls.BODY_KEY,
        ) + cls.EXTRA_KEYS
        records: List[Dict[str, object]] = []
        for line, rec in numbered:
            if not isinstance(rec, Mapping):
                raise cls._fail("record is not a JSON object", line)
            missing = sorted(k for k in required if k not in rec)
            if missing:
                raise cls._fail(f"record missing keys {missing}", line)
            if rec["seq"] != len(records):
                raise cls._fail(
                    f"sequence gap: expected seq {len(records)}, got "
                    f"{rec['seq']!r}",
                    line,
                )
            cls._check_link(records[-1] if records else None, rec, line)
            records.append(dict(rec))
        if not records:
            raise cls._fail(f"empty log (no {cls.OPEN_KIND} header)")
        kind = records[0][cls.KIND_KEY]
        if kind != cls.OPEN_KIND:
            raise cls._fail(
                f"first record must be the {cls.OPEN_KIND!r} header, "
                f"got {kind!r}",
                1,
            )
        read_document(records[0][cls.BODY_KEY], cls.FORMAT, cls.VERSION,
                      cls.ERROR, cls.WHAT, line=1)
        return records
