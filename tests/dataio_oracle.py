"""Reference reader for one annotated JSONL record in two steps: a
type-checking span builder, then the pairwise ``oracle_validate`` on every
document. ``labelproj.dataio`` builds the spans in one loop and runs
``validate`` on the document.

Kept only as an oracle: tests require the production reader to give an
equal document and equal diagnostics, or the same exception with the same
message, for every decoded JSON object.
"""

from __future__ import annotations

from typing import Any, Mapping

from labelproj import AnnotatedText, Span
from labelproj.errors import FormatError
from labelproj.model import Diagnostic

from model_oracle import oracle_validate


def _string(record: Mapping[str, Any], key: str, default: str | None = None) -> str:
    value = record[key] if default is None else record.get(key, default)
    if not isinstance(value, str):
        raise FormatError(f"{key!r} must be a string, not {value!r}")
    return value


def _integer(record: Mapping[str, Any], key: str) -> int:
    value = record[key]
    if type(value) is not int:
        raise FormatError(f"{key!r} must be an integer, not {value!r}")
    return value


def _record_id(record: Mapping[str, Any]) -> str:
    value = record["id"]
    if type(value) is not int and not isinstance(value, str):
        raise FormatError(f"'id' must be a string or an integer, not {value!r}")
    return str(value)


def oracle_parse_annotated(record: Mapping[str, Any]) -> tuple[AnnotatedText, list[Diagnostic]]:
    spans = tuple(
        Span(_string(s, "tag"), _integer(s, "start"), _integer(s, "end"), s.get("label"))
        for s in record["spans"]
    )
    if any(span.label is not None and not isinstance(span.label, str) for span in spans):
        raise FormatError("span 'label' must be a string or null")
    doc = AnnotatedText(
        id=_record_id(record),
        lang=_string(record, "lang", ""),
        text=_string(record, "text"),
        spans=spans,
    )
    return doc, oracle_validate(doc)
