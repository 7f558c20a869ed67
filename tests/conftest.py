from __future__ import annotations

import json
from pathlib import Path

from labelproj import AnnotatedText, Span, dump
from labelproj.cli import main


def make_doc(text: str, spans=(), doc_id: str = "d", lang: str = "en") -> AnnotatedText:
    return AnnotatedText(id=doc_id, lang=lang, text=text, spans=tuple(spans))


def canon(spans) -> tuple[Span, ...]:
    """The span order decode emits: start, then longest first, then tag."""
    return tuple(sorted(spans, key=lambda s: (s.start, -s.end, (len(s.tag), s.tag))))


def evaluated_projection_rate(run_dir: Path, pairs) -> float | None:
    """The global projection rate of ``evaluate``'s JSON report on (source, hypothesis) tagged pairs, each pair's
    source id a reference document of its own; None when ``evaluate`` exits non-zero."""
    sources, hypotheses = [source for source, _ in pairs], [hypothesis for _, hypothesis in pairs]
    dump(sources, run_dir / "src.tagged.jsonl")
    dump(hypotheses, run_dir / "hyp.tagged.jsonl")
    dump([make_doc("x", doc_id=source.id) for source in sources], run_dir / "ref.jsonl")
    code = main([
        "evaluate", "--projected", str(run_dir / "ref.jsonl"), "--reference", str(run_dir / "ref.jsonl"),
        "--source-tagged", str(run_dir / "src.tagged.jsonl"), "--hypothesis-tagged", str(run_dir / "hyp.tagged.jsonl"),
        "--report", "json", "--report-out", str(run_dir / "report.json"),
    ])
    return json.loads((run_dir / "report.json").read_text())["global"]["projection_rate"] if code == 0 else None
