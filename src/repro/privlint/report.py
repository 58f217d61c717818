"""The versioned ``repro-lint`` report document and the committed
baseline of grandfathered findings.

The report is the machine-readable half of the lint gate: CI runs
``python -m repro.cli lint --format json``, uploads the document as an
artifact, and fails the build when the ``new`` count is non-zero.
Like every other serialized document in this codebase
(``repro-profile``, ``repro-flight``, ``repro-telemetry``) it carries
``format``/``version`` markers and a fail-closed reader,
:func:`validate_lint_report`, that raises
:class:`~repro.exceptions.LintError` on anything it does not fully
understand.

The baseline (``repro-lint-baseline``) grandfathers pre-existing
findings so the gate can be turned on before the last finding is
fixed: a finding whose :attr:`~repro.privlint.findings.Finding.key`
appears in the baseline is reported but does not fail the gate.  The
committed baseline lives next to this module
(:data:`DEFAULT_BASELINE_PATH`) and ``lint --update-baseline``
rewrites it; keeping it near-empty is the house rule — intentional
violations get inline ``# privlint: ignore[rule]`` justifications
instead of baseline entries.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..exceptions import LintError
from ..formats import check_fields, read_document
from .engine import LintResult
from .findings import Finding, finding_from_dict

__all__ = [
    "LINT_FORMAT",
    "LINT_VERSION",
    "BASELINE_FORMAT",
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_PATH",
    "lint_document",
    "validate_lint_report",
    "load_baseline",
    "save_baseline",
    "render_text",
]

# Version 2 adds the ``unused_ignores`` section (dead-suppression
# detection) and its summary count.
LINT_FORMAT = "repro-lint"
LINT_VERSION = 2

# Version 2 makes entries count-aware: two identical findings in one
# file used to collapse into a single ``(rule, path, message)`` slot,
# letting the second ride in for free.  Entries now carry ``count``
# and the gate fails when the occurrence count *grows* past it.
BASELINE_FORMAT = "repro-lint-baseline"
BASELINE_VERSION = 2

#: The committed self-hosting baseline, shipped inside the package so
#: the default gate works from any checkout or install.
DEFAULT_BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"

BaselineKey = Tuple[str, str, str]


def lint_document(
    result: LintResult,
    baseline: Optional[
        Union[Mapping[BaselineKey, int], FrozenSet[BaselineKey]]
    ] = None,
) -> Dict[str, object]:
    """The versioned JSON report for one analyzer run.

    Every unsuppressed finding is listed with a ``baselined`` marker;
    the ``summary`` block carries the counts the gate and CI read
    (``new`` is the number of non-baselined findings — the gate fails
    when it is non-zero).

    The baseline is count-aware: a key grandfathers at most ``count``
    occurrences, so a second identical finding in the same file no
    longer rides in for free.  Occurrences are consumed in report
    order.  A plain key set is accepted for convenience and means
    count 1 per key.
    """
    if baseline is None:
        allowance: Dict[BaselineKey, int] = {}
    elif isinstance(baseline, Mapping):
        allowance = dict(baseline)
    else:
        allowance = {key: 1 for key in baseline}
    findings: List[Dict[str, object]] = []
    new = 0
    for finding in result.findings:
        remaining = allowance.get(finding.key, 0)
        baselined = remaining > 0
        if baselined:
            allowance[finding.key] = remaining - 1
        else:
            new += 1
        entry = finding.as_dict()
        entry["baselined"] = baselined
        findings.append(entry)
    return {
        "format": LINT_FORMAT,
        "version": LINT_VERSION,
        "files_scanned": len(result.files),
        "findings": findings,
        "unused_ignores": [
            ignore.as_dict() for ignore in result.unused_ignores
        ],
        "summary": {
            "total": len(findings),
            "new": new,
            "baselined": len(findings) - new,
            "suppressed": result.suppressed,
            "unused_ignores": len(result.unused_ignores),
        },
    }


_SUMMARY_COUNTS = ("total", "new", "baselined", "suppressed", "unused_ignores")


def validate_lint_report(doc: object) -> Dict[str, object]:
    """Check a lint report document (JSON text or parsed); returns it
    typed as a dict.

    Fail-closed through :mod:`repro.formats`: wrong format marker,
    unsupported version, a missing section, a malformed finding entry,
    or a summary that disagrees with the findings it summarizes all
    raise :class:`~repro.exceptions.LintError`.
    """
    doc = read_document(
        doc, LINT_FORMAT, LINT_VERSION, LintError, "lint report",
        {"findings": list, "unused_ignores": list, "summary": dict},
    )
    findings = doc["findings"]
    new = 0
    for entry in findings:
        finding_from_dict(entry)  # raises on malformed entries
        if not isinstance(entry, dict) or "baselined" not in entry:
            raise LintError(
                "lint report finding lacks the 'baselined' marker"
            )
        if not entry["baselined"]:
            new += 1
    unused = doc["unused_ignores"]
    for entry in unused:
        check_fields(
            entry, {"path": str, "line": int, "rules": list}, LintError,
            "lint report unused-ignore entry",
        )
    summary = check_fields(
        doc["summary"], dict.fromkeys(_SUMMARY_COUNTS, int), LintError,
        "lint report summary",
    )
    if summary["total"] != len(findings) or summary["new"] != new:
        raise LintError(
            "lint report summary disagrees with its findings "
            f"(summary says total={summary['total']} new="
            f"{summary['new']}, findings say total={len(findings)} "
            f"new={new})"
        )
    if summary["unused_ignores"] != len(unused):
        raise LintError(
            "lint report summary disagrees with its unused_ignores "
            f"(summary says {summary['unused_ignores']}, document "
            f"lists {len(unused)})"
        )
    return doc


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------


def load_baseline(path: Path) -> Dict[BaselineKey, int]:
    """Grandfathered finding keys -> allowed occurrence counts.

    A missing file is an empty baseline (every finding is new — the
    fail-closed direction); a file that exists but cannot be parsed or
    carries the wrong markers raises
    :class:`~repro.exceptions.LintError`.  Version 1 baselines (no
    ``count`` field) are still readable and mean one occurrence per
    entry — exactly the v1 semantics for the common case, stricter
    for the duplicate-collapse hole v2 closes.
    """
    path = Path(path)
    if not path.exists():
        return {}
    try:
        text = path.read_text()
    except OSError as error:
        raise LintError(
            f"cannot read lint baseline {path}: {error}"
        ) from None
    entries = read_document(
        text, BASELINE_FORMAT, (1, BASELINE_VERSION), LintError,
        f"lint baseline {path}", {"entries": list},
    )["entries"]
    keys: Dict[BaselineKey, int] = {}
    for entry in entries:
        check_fields(
            entry, dict.fromkeys(("rule", "path", "message"), str), LintError,
            f"lint baseline {path} entry",
        )
        count = entry.get("count", 1)
        if (
            not isinstance(count, int)
            or isinstance(count, bool)
            or count < 1
        ):
            raise LintError(
                f"{path} has a baseline entry with invalid count "
                f"{count!r} (must be a positive integer)"
            )
        key = (entry["rule"], entry["path"], entry["message"])
        keys[key] = keys.get(key, 0) + count
    return keys


def save_baseline(path: Path, findings: Iterable[Finding]) -> int:
    """Write the baseline document grandfathering ``findings`` with
    their occurrence counts; returns the number of entries written."""
    counts = Counter(f.key for f in findings)
    document = {
        "format": BASELINE_FORMAT,
        "version": BASELINE_VERSION,
        "entries": [
            {
                "rule": rule,
                "path": path_,
                "message": message,
                "count": counts[(rule, path_, message)],
            }
            for rule, path_, message in sorted(counts)
        ],
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return len(counts)


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------


def render_text(
    document: Dict[str, object], show_unused_ignores: bool = False
) -> str:
    """Human-readable rendering of a lint report document: one
    ``path:line: rule [severity] message`` line per finding (baselined
    findings marked), optionally the unused-ignore warnings, then the
    summary line the gate acts on."""
    lines: List[str] = []
    for entry in document["findings"]:
        finding = finding_from_dict(entry)
        suffix = "  (baselined)" if entry.get("baselined") else ""
        lines.append(finding.render() + suffix)
    if show_unused_ignores:
        for entry in document.get("unused_ignores", []):
            rules = ",".join(entry["rules"])
            lines.append(
                f"{entry['path']}:{entry['line']}: unused privlint "
                f"ignore[{rules}] (suppressed no finding)"
            )
    summary = document["summary"]
    lines.append(
        f"privlint: {document['files_scanned']} files, "
        f"{summary['total']} finding(s) "
        f"({summary['new']} new, {summary['baselined']} baselined, "
        f"{summary['suppressed']} suppressed, "
        f"{summary['unused_ignores']} unused ignore(s))"
    )
    return "\n".join(lines) + "\n"
