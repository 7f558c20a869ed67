"""Dataset readers and writers: annotated/tagged/parallel/raw-markup JSONL,
QA-style JSON trees, and plain parallel text.

All files are UTF-8 without BOM. Writers emit one record per line in a
canonical field order with a trailing newline, so dumping twice is
byte-stable and ``load(dump(x)) == x`` on valid datasets. Every JSONL file
the toolkit writes goes through ``dump``, ``write_diagnostics`` or
``write_records``.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from contextlib import suppress
from enum import Enum
from itertools import chain, groupby, islice
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .codec import tag_name
from .corpus import DirectedExample, RawMarkupPair
from .errors import ErrorBudgetExceeded, FormatError
from .model import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    AnnotatedText,
    Diagnostic,
    Span,
    TaggedText,
    has_errors,
    validate,
)

# How far (in scalar values) an answer offset may drift before we give up
# repairing it against the context.
QA_REPAIR_WINDOW = 8
# The JSON escape of a surrogate, U+D800 to U+DFFF: only text with one can hold a lone surrogate.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class DatasetFormat(str, Enum):
    ANNOTATED_JSONL = "annotated"
    TAGGED_JSONL = "tagged"
    PARALLEL_JSONL = "parallel"
    RAW_MARKUP_JSONL = "raw"
    PLAIN_TEXT = "text"


# Each JSONL format's item type and its record's keys in file order. A file's
# first record must hold every key but ``lang``, which defaults to "".
_LAYOUTS = {
    DatasetFormat.ANNOTATED_JSONL: (AnnotatedText, ("id", "lang", "text", "spans")),
    DatasetFormat.TAGGED_JSONL: (TaggedText, ("id", "lang", "tagged_text")),
    DatasetFormat.PARALLEL_JSONL: (DirectedExample, DirectedExample._fields),
    DatasetFormat.RAW_MARKUP_JSONL: (RawMarkupPair, RawMarkupPair._fields),
}
_ITEM_KEYS = dict(_LAYOUTS.values())  # the keys of each item type, for the writer


def _lines(path: Path) -> Iterator[str]:
    """Yield the file's lines one at a time, each keeping its terminator."""
    try:
        with path.open(encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: {exc}") from exc


def parse_json(text: str) -> Any:
    """The value of JSON text read from outside. ``ValueError`` if it does not parse or is nested too deeply
    to decode, and ``UnicodeError``, a ``ValueError`` too, if a string holds a lone surrogate, which UTF-8
    cannot encode."""
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            _json(value).encode("utf-8")
        return value
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
    except UnicodeEncodeError as exc:
        surrogate = ord(exc.object[exc.start])
        raise UnicodeError(f"a string holds the lone surrogate U+{surrogate:04X}: surrogates not allowed") from None


def read_qa_tree(path: Path) -> Any:
    """A QA file's JSON value; :class:`FormatError` names the file if it is not UTF-8 or JSON or has a lone surrogate."""
    try:
        return parse_json("".join(_lines(path)))
    except ValueError as exc:
        raise FormatError(f"{path}: QA JSON does not parse: {exc}") from exc


def read_items(path: Path, fmt: DatasetFormat, error_budget: int, diagnostics: list[Diagnostic]) -> Iterator[Any]:
    """Yield a dataset's items in record order, appending each diagnostic to ``diagnostics`` when it is found.

    A rejected record is skipped and its diagnostics carry its line number:
    an unreadable line gives one MALFORMED_RECORD, a record that fails
    validation gives its own. Once more than ``error_budget`` records have
    been rejected, :class:`ErrorBudgetExceeded` aborts the read. A file
    whose first record does not match the declared format raises
    :class:`FormatError`. Every plain-text line is an item.
    """
    errors = 0
    first_checked = False
    for lineno, line in enumerate(_lines(path), start=1):
        if fmt is DatasetFormat.PLAIN_TEXT:
            text = TaggedText(str(lineno), "", line.rstrip("\n"))
            # In a line without spans, validate finds only marker-shaped substrings: one MARKER_COLLISION each.
            diagnostics += [_at_line(d, lineno) for d in validate(AnnotatedText(text.id, "", text.tagged))]
            yield text
            continue
        if not line.strip():
            continue
        try:
            record = parse_json(line.rstrip("\n"))
            if not isinstance(record, dict):
                raise FormatError("record is not a JSON object")
            if not first_checked:
                _check_first_record(fmt, record)
                first_checked = True
            item, record_diags = _parse_record(fmt, record)
        except (FormatError, KeyError, TypeError, ValueError) as exc:
            # A lone surrogate is a malformed record, never an unreadable first record.
            if not first_checked and not isinstance(exc, UnicodeError):
                if isinstance(exc, FormatError):
                    raise
                raise FormatError(f"line {lineno}: first record unreadable: {exc}") from exc
            item, record_diags = None, [Diagnostic(SEVERITY_ERROR, "MALFORMED_RECORD", str(exc))]
        if record_diags:
            diagnostics += [_at_line(diag, lineno) for diag in record_diags]
            if has_errors(record_diags):
                errors += 1
                if errors > error_budget:
                    raise ErrorBudgetExceeded(f"{errors} rejected records exceed budget of {error_budget}")
                continue
        yield item


def load(path: Path, fmt: DatasetFormat, error_budget: int = 0) -> tuple[list[Any], list[Diagnostic]]:
    """Every item of a dataset and the diagnostics of reading it, as :func:`read_items` gives them."""
    diagnostics: list[Diagnostic] = []
    return list(read_items(path, fmt, error_budget, diagnostics)), diagnostics


def _at_line(diag: Diagnostic, lineno: int) -> Diagnostic:
    """``diag`` found on input line ``lineno``, which prefixes its message and becomes its offset."""
    return Diagnostic(diag.severity, diag.code, f"line {lineno}: {diag.message}", offset=lineno)


def _check_first_record(fmt: DatasetFormat, record: Mapping[str, Any]) -> None:
    missing = [key for key in _LAYOUTS[fmt][1] if key != "lang" and key not in record]
    if missing:
        raise FormatError(f"first record lacks {missing}; not a {fmt.value} dataset")


def _string(record: Mapping[str, Any], key: str, default: str | None = None) -> str:
    """``record[key]``, or ``default`` when given and the key is absent; a JSON string."""
    value = record[key] if default is None else record.get(key, default)
    if not isinstance(value, str):
        raise FormatError(f"{key!r} must be a string, not {value!r}")
    return value


def _integer(record: Mapping[str, Any], key: str) -> int:
    """``record[key]``, a JSON integer (``true`` and ``1.0`` are not)."""
    value = record[key]
    if type(value) is not int:
        raise FormatError(f"{key!r} must be an integer, not {value!r}")
    return value


def _record_id(record: Mapping[str, Any]) -> str:
    value = record["id"]
    if type(value) is not int and not isinstance(value, str):
        raise FormatError(f"'id' must be a string or an integer, not {value!r}")
    return str(value)


def _annotated(record: Mapping[str, Any]) -> tuple[AnnotatedText, list[Diagnostic]]:
    """An annotated record's document and ``validate``'s diagnostics on it.

    A value of the wrong JSON type raises :class:`FormatError`, checked in this
    order: each span's tag, start and end, then any label, then id, lang and
    text. Every document that is built is validated.
    """
    spans = []
    bad_label = False
    for raw in record["spans"]:
        tag = _string(raw, "tag")
        start = _integer(raw, "start")
        end = _integer(raw, "end")
        label = raw.get("label")
        if label is not None and not isinstance(label, str):
            bad_label = True
        spans.append(tuple.__new__(Span, (tag, start, end, label)))
    if bad_label:
        raise FormatError("span 'label' must be a string or null")
    doc_id, lang, text = _record_id(record), _string(record, "lang", ""), _string(record, "text")
    doc = tuple.__new__(AnnotatedText, (doc_id, lang, text, tuple(spans)))
    return doc, validate(doc)


def _parse_record(fmt: DatasetFormat, record: Mapping[str, Any]) -> tuple[Any, list[Diagnostic]]:
    if fmt is DatasetFormat.ANNOTATED_JSONL:
        return _annotated(record)
    kind, keys = _LAYOUTS[fmt]
    item_id = _record_id(record)
    return kind(item_id, *[_string(record, key, "" if key == "lang" else None) for key in keys[1:]]), []


# ``json.dumps``'s text for each plain field type, with ``ensure_ascii=False``;
# a field of any other type goes through ``_json``.
_PLAIN_JSON = {str: encode_basestring, int: int.__repr__, type(None): lambda _: "null"}


def _json(value: Any) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


def _record_line(item: Any, kind: type) -> str:
    """The record line of an item that must be of type ``kind``: ``_json`` of its
    record, written one field at a time."""
    if type(item) is not kind:
        raise FormatError(f"cannot write a {type(item).__name__} among {kind.__name__} items")
    keys = _ITEM_KEYS.get(kind)
    if keys is None:
        raise FormatError(f"no dataset format holds {kind.__name__} items")
    plain = _PLAIN_JSON.get
    if kind is not AnnotatedText:
        fields = [f'"{key}":{plain(type(field), _json)(field)}' for key, field in zip(keys, item)]
        return "{" + ",".join(fields) + "}"
    spans = []
    for span in item.spans:
        if type(span) is not Span:
            spans.append(_json(span._asdict()))
            continue
        tag, start, end, label = span
        spans.append(
            f'{{"tag":{plain(type(tag), _json)(tag)},"start":{plain(type(start), _json)(start)},'
            f'"end":{plain(type(end), _json)(end)},"label":{plain(type(label), _json)(label)}}}'
        )
    doc_id, lang, text, _ = item
    return (
        f'{{"id":{plain(type(doc_id), _json)(doc_id)},"lang":{plain(type(lang), _json)(lang)},'
        f'"text":{plain(type(text), _json)(text)},"spans":[{",".join(spans)}]}}'
    )


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write one string, or an iterable of strings in order, via a temporary
    file and rename, so readers never see partials."""
    path = Path(path)
    created = [d for d in (path.parent, *path.parent.parents) if not d.exists()]  # deepest first
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp_name, path)
    except BaseException:
        for leftover, remove in [(tmp_name, os.unlink), *((d, os.rmdir) for d in created)]:
            with suppress(OSError):
                remove(leftover)
        raise


def dump(items: Iterable[Any], path: Path) -> None:
    """Write items to ``path`` one line at a time, atomically, in the format their type fixes.

    The first item's type picks the format. An item of another type, or a
    type no format holds, raises :class:`FormatError` and leaves any old
    file in place, as does an error raised while ``items`` is iterated.
    """
    items = iter(items)
    head = list(islice(items, 1))
    kind = type(head[0]) if head else None
    atomic_write_text(path, (_record_line(item, kind) + "\n" for item in chain(head, items)))


def write_records(path: Path, records: Iterable[Mapping[str, Any]]) -> None:
    """Write plain JSON records atomically, one canonical line each, in ``dump``'s encoding."""
    atomic_write_text(path, (_json(record) + "\n" for record in records))


def write_diagnostics(path: Path, groups: Iterable[tuple[str | None, Iterable[Diagnostic]]]) -> None:
    """Write a diagnostics sidecar from ``(document id or None, diagnostics)`` groups, in order: one
    line per diagnostic, its ``Diagnostic`` fields and then ``"id"`` when its group has one."""
    records = (
        diag._asdict() if doc_id is None else {**diag._asdict(), "id": doc_id}
        for doc_id, diags in groups
        for diag in diags
    )
    write_records(path, records)


def read_diagnostics(path: Path) -> list[tuple[str | None, list[Diagnostic]]]:
    """The ``(document id or None, diagnostics)`` groups of a sidecar that :func:`write_diagnostics` wrote:
    consecutive lines with one ``"id"``, or with none, make one group."""
    groups = groupby(map(parse_json, _lines(path)), key=lambda record: record.get("id"))
    return [(doc_id, [Diagnostic(*map(r.get, Diagnostic._fields)) for r in records]) for doc_id, records in groups]


def _repair_offset(context: str, answer: str, start: int) -> tuple[int, int | None]:
    """Return (start, shift) where shift is None when no exact match exists
    within the repair window."""
    n = len(context)
    k = len(answer)
    if 0 <= start and start + k <= n and context[start : start + k] == answer:
        return start, 0
    for distance in range(1, QA_REPAIR_WINDOW + 1):
        for shift in (-distance, distance):
            s = start + shift
            if 0 <= s and s + k <= n and context[s : s + k] == answer:
                return s, shift
    return start, None


def _answer_spans(context: str, qas: Iterable[Mapping[str, Any]]) -> tuple[tuple[Span, ...], list[Diagnostic]]:
    """One span per answer to the questions ``qas``, repairing or flagging offsets, and the diagnostics."""
    spans: list[Span] = []
    diagnostics: list[Diagnostic] = []
    for qa in qas:
        qa_id = str(qa.get("id", ""))
        for answer in qa.get("answers", ()):
            answer_text = _string(answer, "text")
            stated = _integer(answer, "answer_start")
            start, shift = _repair_offset(context, answer_text, stated)
            name = qa_id or len(spans)
            if shift is None:
                start = min(max(stated, 0), len(context))
                end = min(start + len(answer_text), len(context))
                diagnostics.append(
                    Diagnostic(
                        SEVERITY_WARNING,
                        "ANSWER_MISMATCH",
                        f"answer {name}: text not found near offset {stated}",
                        offset=start,
                    )
                )
            else:
                end = start + len(answer_text)
                if shift != 0:
                    diagnostics.append(
                        Diagnostic(
                            SEVERITY_INFO, "ANSWER_REPAIRED", f"answer {name}: offset shifted by {shift:+d}", offset=start
                        )
                    )
            spans.append(Span(tag_name(len(spans)), start, end))
    return tuple(spans), diagnostics


def ingest_qa(tree: Mapping[str, Any], lang: str) -> list[tuple[AnnotatedText, int, list[Diagnostic]]]:
    """Walk a SQuAD-v1.1-shaped tree once: one ``(AnnotatedText, question count, diagnostics)`` per context.

    Contexts come in tree order. A context's id is its first question's id,
    else title#index, else its index in the tree. Answers become spans tagged
    a, b, ... in answer order (question order, then answer order within a
    question); the span end is the answer start plus the answer text length in
    scalar values. An answer whose text does not appear at its stated offset is
    shifted to the nearest exact match within ±8 scalar values
    (ANSWER_REPAIRED), otherwise kept as stated and flagged ANSWER_MISMATCH. A
    tree of the wrong shape raises FormatError.
    """
    contexts: list[tuple[AnnotatedText, int, list[Diagnostic]]] = []
    try:
        if "data" not in tree:
            raise FormatError("QA tree lacks the top-level 'data' key")
        for article in tree["data"]:
            title = article.get("title", "")
            for para_i, paragraph in enumerate(article.get("paragraphs", ())):
                qas = paragraph.get("qas", ())
                if qas and qas[0].get("id"):
                    doc_id = str(qas[0]["id"])
                elif title:
                    doc_id = f"{title}#{para_i}"
                else:
                    doc_id = str(len(contexts))
                context = _string(paragraph, "context")
                spans, diagnostics = _answer_spans(context, qas)
                contexts.append((AnnotatedText(doc_id, lang, context, spans), len(qas), diagnostics))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed QA tree: {type(exc).__name__}: {exc}") from exc
    return contexts
