"""The read side of every versioned JSON document, in one place.

Everything the library writes for another process to read is a JSON
object with a ``format`` marker and an integer ``version`` (the two
JSONL journals carry the pair in their open header).  These documents
are the publish boundary, so every reader fails closed through
:func:`read_document`, with one message template::

    <what> invalid[ (line N)]: <problem>

Writers keep their own ``json.dumps`` calls, and body-specific checks
stay with each reader.
"""

from __future__ import annotations

import json
from typing import Any, Collection, Dict, Mapping, Tuple, Type

__all__ = ["NUMBER", "check_fields", "invalid", "read_document"]

#: The field type of a JSON number (never a ``bool``).
NUMBER = (int, float)

_TYPE_NAMES = {list: "list", dict: "object", str: "string",
               bool: "boolean", int: "integer", NUMBER: "number"}


def invalid(
    error: Type[Exception], what: str, problem: str, line: int | None = None
) -> Exception:
    """``error`` for a failed check, in the one message template."""
    where = f" (line {line})" if line is not None else ""
    return error(f"{what} invalid{where}: {problem}")


def check_fields(
    doc: object,
    fields: Mapping[str, type | Tuple[type, ...]],
    error: Type[Exception],
    what: str,
    line: int | None = None,
) -> Dict[str, Any]:
    """Require a JSON object whose ``fields`` have the given types
    (``list``, ``dict``, ``str``, ``bool``, ``int`` or
    :data:`NUMBER`); returns it."""
    if not isinstance(doc, dict):
        problem = f"must be a JSON object, got {type(doc).__name__}"
        raise invalid(error, what, problem, line)
    for name, expected in fields.items():
        value = doc.get(name)
        if isinstance(value, bool) != (expected is bool) or not isinstance(
            value, expected
        ):
            problem = f"no {name!r} {_TYPE_NAMES[expected]}"
            raise invalid(error, what, problem, line)
    return doc


def read_document(
    source: object,
    fmt: str,
    versions: int | Collection[int],
    error: Type[Exception],
    what: str,
    fields: Mapping[str, type | Tuple[type, ...]] | None = None,
    line: int | None = None,
) -> Dict[str, Any]:
    """Check a document's header and required top-level fields.

    ``source`` is JSON text or an already parsed document; ``versions``
    is the version (or versions) this build reads; ``fields`` maps each
    required field to its type (see :func:`check_fields`).  Returns the
    document, or raises ``error`` on malformed JSON, a non-object, a
    wrong format, an unreadable version or a missing or mistyped field.
    """
    doc = source
    if isinstance(source, (str, bytes, bytearray)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            problem = f"malformed JSON ({exc.msg})"
            raise invalid(error, what, problem, line) from None
    check_fields(doc, {}, error, what, line)
    if doc.get("format") != fmt:
        article = "an" if what[0] in "aeiou" else "a"
        problem = (f"not {article} {what} (format={doc.get('format')!r}, "
                   f"expected {fmt!r})")
        raise invalid(error, what, problem, line)
    readable = (versions,) if isinstance(versions, int) else tuple(versions)
    version = doc.get("version")
    if isinstance(version, bool) or version not in readable:
        listed = " and ".join(map(str, readable))
        plural = "s" if len(readable) > 1 else ""
        problem = (f"unsupported version {version!r} (this build reads "
                   f"version{plural} {listed})")
        raise invalid(error, what, problem, line)
    return check_fields(doc, fields or {}, error, what, line)
