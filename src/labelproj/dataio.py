"""Dataset readers and writers: annotated/tagged/parallel/raw-markup JSONL,
QA-style JSON trees, and plain parallel text.

All files are UTF-8 without BOM. Writers emit one record per line in a
canonical field order with a trailing newline, so dumping twice is
byte-stable and ``load(dump(x)) == x`` on valid datasets.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Sequence, TextIO

from .codec import tag_name
from .corpus import RawMarkupPair
from .errors import ErrorBudgetExceeded, FormatError
from .model import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    AnnotatedText,
    Diagnostic,
    ParallelExample,
    Span,
    TaggedText,
    has_errors,
    validate,
)

# How far (in scalar values) an answer offset may drift before we give up
# repairing it against the context.
QA_REPAIR_WINDOW = 8

# Raw markup records: field order on disk and RawMarkupPair's argument order.
_RAW_FIELDS = ("id", "src_lang", "tgt_lang", "src_markup", "tgt_markup")


class DatasetFormat(str, Enum):
    ANNOTATED_JSONL = "annotated"
    TAGGED_JSONL = "tagged"
    PARALLEL_JSONL = "parallel"
    RAW_MARKUP_JSONL = "raw"
    QA_JSON = "qa"
    PLAIN_TEXT = "text"


@dataclass(frozen=True)
class DatasetHandle:
    format: DatasetFormat
    path: Path | None = None
    stream: TextIO | None = None
    lang: str = ""

    def __post_init__(self) -> None:
        if (self.path is None) == (self.stream is None):
            raise ValueError("exactly one of path or stream must be given")
        if self.path is not None and not isinstance(self.path, Path):
            object.__setattr__(self, "path", Path(self.path))


@dataclass(frozen=True)
class DumpSummary:
    count: int
    path: str | None


def _read_text(handle: DatasetHandle) -> str:
    if handle.stream is not None:
        return handle.stream.read()
    try:
        return handle.path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{handle.path}: not valid UTF-8: {exc}") from exc


def load(
    handle: DatasetHandle, error_budget: int = 0
) -> tuple[list[Any], list[Diagnostic]]:
    """Read a dataset, preserving record order.

    A rejected record is skipped and its diagnostics carry its line number:
    an unreadable line gives one MALFORMED_RECORD, a record that fails
    validation gives its own. Once more than ``error_budget`` records have
    been rejected (default 0), :class:`ErrorBudgetExceeded` aborts the load.
    A file whose first record does not match the declared format raises
    :class:`FormatError`.
    """
    text = _read_text(handle)
    if handle.format is DatasetFormat.QA_JSON:
        try:
            tree = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"QA JSON does not parse: {exc}") from exc
        return ingest_qa(tree, handle.lang)
    if handle.format is DatasetFormat.PLAIN_TEXT:
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        items = [TaggedText(id=str(i + 1), lang=handle.lang, tagged=line) for i, line in enumerate(lines)]
        return items, []

    items: list[Any] = []
    diagnostics: list[Diagnostic] = []
    errors = 0
    first_checked = False
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise FormatError("record is not a JSON object")
            if not first_checked:
                _check_first_record(handle.format, record)
                first_checked = True
            item, record_diags = _parse_record(handle.format, record, handle.lang)
        except (FormatError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if not first_checked:
                if isinstance(exc, FormatError):
                    raise
                raise FormatError(f"line {lineno}: first record unreadable: {exc}") from exc
            item, record_diags = None, [Diagnostic(SEVERITY_ERROR, "MALFORMED_RECORD", str(exc))]
        if record_diags:
            for diag in record_diags:
                diagnostics.append(
                    Diagnostic(diag.severity, diag.code, f"line {lineno}: {diag.message}", offset=lineno)
                )
            if has_errors(record_diags):
                errors += 1
                if errors > error_budget:
                    raise ErrorBudgetExceeded(f"{errors} rejected records exceed budget of {error_budget}")
                continue
        items.append(item)
    return items, diagnostics


def _check_first_record(fmt: DatasetFormat, record: Mapping[str, Any]) -> None:
    required = {
        DatasetFormat.ANNOTATED_JSONL: ("id", "text", "spans"),
        DatasetFormat.TAGGED_JSONL: ("id", "tagged_text"),
        DatasetFormat.PARALLEL_JSONL: ("id", "src_tagged", "tgt_tagged"),
        DatasetFormat.RAW_MARKUP_JSONL: _RAW_FIELDS,
    }[fmt]
    missing = [key for key in required if key not in record]
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


def _parse_record(
    fmt: DatasetFormat, record: Mapping[str, Any], default_lang: str
) -> tuple[Any, list[Diagnostic]]:
    if fmt is DatasetFormat.ANNOTATED_JSONL:
        spans = tuple(
            Span(_string(s, "tag"), _integer(s, "start"), _integer(s, "end"), s.get("label"))
            for s in record["spans"]
        )
        doc = AnnotatedText(
            id=_record_id(record),
            lang=_string(record, "lang", default_lang),
            text=_string(record, "text"),
            spans=spans,
        )
        return doc, validate(doc)
    if fmt is DatasetFormat.TAGGED_JSONL:
        item = TaggedText(
            id=_record_id(record),
            lang=_string(record, "lang", default_lang),
            tagged=_string(record, "tagged_text"),
        )
        return item, []
    if fmt is DatasetFormat.PARALLEL_JSONL:
        doc_id = _record_id(record)
        src_lang = _string(record, "src_lang")
        tgt_lang = _string(record, "tgt_lang")
        example = ParallelExample(
            id=doc_id,
            src=TaggedText(doc_id, src_lang, _string(record, "src_tagged")),
            tgt=TaggedText(doc_id, tgt_lang, _string(record, "tgt_tagged")),
            src_lang=src_lang,
            tgt_lang=tgt_lang,
        )
        return example, []
    if fmt is DatasetFormat.RAW_MARKUP_JSONL:
        return RawMarkupPair(_record_id(record), *(_string(record, key) for key in _RAW_FIELDS[1:])), []
    raise FormatError(f"unsupported record format {fmt}")


def _span_dict(span: Span) -> dict[str, Any]:
    return {"tag": span.tag, "start": span.start, "end": span.end, "label": span.label}


def _record_line(fmt: DatasetFormat, item: Any) -> str:
    if fmt is DatasetFormat.ANNOTATED_JSONL:
        if not isinstance(item, AnnotatedText):
            raise FormatError(f"expected AnnotatedText, got {type(item).__name__}")
        record = {
            "id": item.id,
            "lang": item.lang,
            "text": item.text,
            "spans": [_span_dict(s) for s in item.spans],
        }
    elif fmt is DatasetFormat.TAGGED_JSONL:
        if not isinstance(item, TaggedText):
            raise FormatError(f"expected TaggedText, got {type(item).__name__}")
        record = {"id": item.id, "lang": item.lang, "tagged_text": item.tagged}
    elif fmt is DatasetFormat.PARALLEL_JSONL:
        if not isinstance(item, ParallelExample):
            raise FormatError(f"expected ParallelExample, got {type(item).__name__}")
        if not isinstance(item.src, TaggedText) or not isinstance(item.tgt, TaggedText):
            raise FormatError("parallel records serialize tagged sides only")
        record = {
            "id": item.id,
            "src_lang": item.src_lang,
            "tgt_lang": item.tgt_lang,
            "src_tagged": item.src.tagged,
            "tgt_tagged": item.tgt.tagged,
        }
    elif fmt is DatasetFormat.RAW_MARKUP_JSONL:
        if not isinstance(item, RawMarkupPair):
            raise FormatError(f"expected RawMarkupPair, got {type(item).__name__}")
        record = {key: getattr(item, key) for key in _RAW_FIELDS}
    elif fmt is DatasetFormat.PLAIN_TEXT:
        if not isinstance(item, TaggedText):
            raise FormatError(f"expected TaggedText, got {type(item).__name__}")
        return item.tagged
    else:
        raise FormatError(f"{fmt.value} datasets are ingest-only")
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def dump(items: Sequence[Any], handle: DatasetHandle) -> DumpSummary:
    """Serialize items to the handle; returns a count summary.

    Content is written atomically when the handle names a path.
    """
    lines = [_record_line(handle.format, item) for item in items]
    payload = "".join(line + "\n" for line in lines)
    if handle.stream is not None:
        handle.stream.write(payload)
        return DumpSummary(count=len(items), path=None)
    atomic_write_text(handle.path, payload)
    return DumpSummary(count=len(items), path=str(handle.path))


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


def _iter_qa_paragraphs(tree: Mapping[str, Any]):
    """Yield (doc id, paragraph) per context, with a stable id derivation:
    the first question's id, else title#index, else a running index."""
    if "data" not in tree:
        raise FormatError("QA tree lacks the top-level 'data' key")
    running = 0
    for article in tree["data"]:
        title = article.get("title", "")
        for para_i, paragraph in enumerate(article.get("paragraphs", ())):
            qas = paragraph.get("qas", ())
            if qas and qas[0].get("id"):
                doc_id = str(qas[0]["id"])
            elif title:
                doc_id = f"{title}#{para_i}"
            else:
                doc_id = str(running)
            yield doc_id, paragraph
            running += 1


def qa_question_counts(tree: Mapping[str, Any]) -> dict[str, int]:
    """Question count per context, keyed by the same ids ingest_qa assigns."""
    return {doc_id: len(paragraph.get("qas", ())) for doc_id, paragraph in _iter_qa_paragraphs(tree)}


def _answer_spans(context: str, paragraph: Mapping[str, Any], diagnostics: list[Diagnostic]) -> tuple[Span, ...]:
    """One span per answer in the paragraph, repairing or flagging offsets."""
    spans: list[Span] = []
    for qa in paragraph.get("qas", ()):
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
    return tuple(spans)


def ingest_qa(tree: Mapping[str, Any], lang: str) -> tuple[list[AnnotatedText], list[Diagnostic]]:
    """Convert a SQuAD-v1.1-shaped tree into one AnnotatedText per context.

    Answers become spans tagged a, b, ... in answer order (question order,
    then answer order within a question); the span end is the answer start
    plus the answer text length in scalar values. An answer whose text does
    not appear at its stated offset is shifted to the nearest exact match
    within ±8 scalar values (ANSWER_REPAIRED), otherwise kept as stated and
    flagged ANSWER_MISMATCH. A tree of the wrong shape raises FormatError.
    """
    docs: list[AnnotatedText] = []
    diagnostics: list[Diagnostic] = []
    try:
        for doc_id, paragraph in _iter_qa_paragraphs(tree):
            context = _string(paragraph, "context")
            docs.append(AnnotatedText(doc_id, lang, context, _answer_spans(context, paragraph, diagnostics)))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed QA tree: {type(exc).__name__}: {exc}") from exc
    return docs, diagnostics
