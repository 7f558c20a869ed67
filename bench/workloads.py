"""Seeded inputs, independent expectations and output checks for the three
benchmark workloads.

Nothing here imports ``labelproj``: every input is built by this module from
``--seed`` and a fixed lexicon, and every expected output is computed from
the structure the generator chose, not from the program.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
import random
import re
import string
from collections import Counter
from pathlib import Path

SRC_LANG = "eng_Latn"
TGT_LANG = "deu_Latn"
THRESHOLD = 0.5
DROP_Q = 0.3
# Complex-mode sampling parameters: one open draw per token boundary, one
# close draw per open span per later boundary (the paper's defaults).
P_OPEN = 0.2
P_CLOSE = 0.5

# The drop workload's projection rate must lie within RATE_CHECK_SE standard
# errors of sum((1-q)^k_i)/N. Runs use arbitrary seeds, so 4 rather than 3:
# at 3 a correct dropper fails on about 1 seed in 370. Below 200 documents
# the normal approximation does not hold and the check is skipped.
RATE_CHECK_SE = 4
RATE_CHECK_MIN_DOCS = 200


def _lexicon_words(rng: random.Random, n: int, lo: int, hi: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < n:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi)))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _build_lexicon():
    # Fixed, seed-independent: the stub's dictionary must not vary by run.
    rng = random.Random(0x1AB31)
    taken: set[str] = set()
    vocab = _lexicon_words(rng, 2000, 2, 9, taken)
    targets = _lexicon_words(rng, 2000, 2, 10, taken)
    names = [w.capitalize() for w in _lexicon_words(rng, 300, 4, 9, taken)]
    ref = [w.capitalize() for w in _lexicon_words(rng, 300, 4, 9, taken)]
    far = [w.capitalize() for w in _lexicon_words(rng, 300, 4, 9, taken)]
    near = []
    for word in ref:
        last = word[-1]
        near.append(word[:-1] + ("x" if last != "x" else "y"))
    words = dict(zip(vocab, targets))
    name_forms = {n: {"ref": r, "near": ne, "far": f} for n, r, ne, f in zip(names, ref, near, far)}
    return vocab, words, names, name_forms


VOCAB, WORDS, NAMES, NAME_FORMS = _build_lexicon()


def tag_name(index: int) -> str:
    """a, b, ..., z, aa, ab, ...: bijective base 26."""
    n = index + 1
    out = []
    while n:
        n, rem = divmod(n - 1, 26)
        out.append(string.ascii_lowercase[rem])
    return "".join(reversed(out))


def similarity(a: str, b: str) -> float:
    return difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()


def jsonl(records) -> str:
    return "".join(json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n" for r in records)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _layout(tokens: list[str]) -> tuple[str, list[int], list[int]]:
    """Join tokens with single spaces; return text and per-token offsets."""
    starts, ends = [], []
    pos = 0
    for tok in tokens:
        starts.append(pos)
        ends.append(pos + len(tok))
        pos += len(tok) + 1
    return " ".join(tokens), starts, ends


def _doc_record(doc_id: str, lang: str, text: str, spans) -> dict:
    return {
        "id": doc_id,
        "lang": lang,
        "text": text,
        "spans": [{"tag": t, "start": s, "end": e, "label": None} for t, s, e in spans],
    }


def _span_key(span: dict) -> tuple[str, int, int]:
    return (span["tag"], span["start"], span["end"])


def match_counts(projected: list[tuple[str, list]], reference: list[tuple[str, list]]) -> tuple[int, int, int]:
    """TP/FP/FN by (tag, occurrence index) correspondence.

    Each argument is a list of (text, [(tag, start, end), ...]) aligned by
    document. The k-th span of a tag (ordered by position) in a projected
    document is compared with the k-th span of that tag in its reference.
    """
    tp = fp = fn = 0
    for (p_text, p_spans), (r_text, r_spans) in zip(projected, reference):
        p_by_tag: dict[str, list] = {}
        r_by_tag: dict[str, list] = {}
        for tag, s, e in p_spans:
            p_by_tag.setdefault(tag, []).append((s, e))
        for tag, s, e in r_spans:
            r_by_tag.setdefault(tag, []).append((s, e))
        for tag in set(p_by_tag) | set(r_by_tag):
            ps = sorted(p_by_tag.get(tag, ()))
            rs = sorted(r_by_tag.get(tag, ()))
            for k in range(max(len(ps), len(rs))):
                if k >= len(rs):
                    fp += 1
                elif k >= len(ps):
                    fn += 1
                elif similarity(p_text[ps[k][0] : ps[k][1]], r_text[rs[k][0] : rs[k][1]]) >= THRESHOLD:
                    tp += 1
                else:
                    fp += 1
                    fn += 1
    return tp, fp, fn


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 1.0
    r = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def report_problems(report: dict, n_docs: int, n_spans: int, counts: tuple[int, int, int], rate: float) -> list[str]:
    """Compare a JSON report with one language row against expectations."""
    problems = []
    rows = report.get("rows", [])
    if len(rows) != 1 or rows[0].get("language") != TGT_LANG:
        problems.append(f"expected one {TGT_LANG} row, got {[r.get('language') for r in rows]}")
        return problems
    tp, fp, fn = counts
    p, r, f = _prf(tp, fp, fn)
    for label, row in (("row", rows[0]), ("global", report.get("global", {}))):
        want = {"examples": n_docs, "spans": n_spans, "tp": tp, "fp": fp, "fn": fn}
        for key, value in want.items():
            if row.get(key) != value:
                problems.append(f"{label}.{key}: report {row.get(key)} != expected {value}")
        for key, value in (("precision", p), ("recall", r), ("f1", f), ("projection_rate", rate)):
            got = row.get(key)
            if not isinstance(got, (int, float)) or not math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{label}.{key}: report {got} != expected {value}")
    return problems


# --- project-drop: complex-mode spans, tag-dropping backend -----------------


def complex_doc(rng: random.Random, doc_id: str) -> dict:
    """3-30 tokens; spans nest and overlap; tags a, b, ... in opening order."""
    n = rng.randint(3, 30)
    text, starts, ends = _layout([rng.choice(VOCAB) for _ in range(n)])
    open_spans: list[tuple[int, int]] = []
    closed: list[tuple[int, int, int]] = []
    next_tag = 0
    for boundary in range(n):
        still_open = []
        for opened_at, tag_i in open_spans:
            if opened_at < boundary and rng.random() < P_CLOSE:
                closed.append((tag_i, opened_at, boundary))
            else:
                still_open.append((opened_at, tag_i))
        open_spans = still_open
        if rng.random() < P_OPEN:
            open_spans.append((boundary, next_tag))
            next_tag += 1
    closed.extend((tag_i, opened_at, n) for opened_at, tag_i in open_spans)
    closed.sort()
    spans = [(tag_name(t), starts[o], ends[c - 1]) for t, o, c in closed]
    return _doc_record(doc_id, SRC_LANG, text, spans)


class ProjectDrop:
    """`project --backend drop:0.3 --reference` over complex-mode documents."""

    def __init__(self, work: Path, seed: int, n_docs: int):
        self.work = work
        self.seed = seed
        rng = random.Random(f"project-drop:{seed}:{n_docs}")
        self.docs = [complex_doc(rng, f"d{seed}-{i:06d}") for i in range(n_docs)]
        work.mkdir(parents=True, exist_ok=True)
        (work / "input.jsonl").write_text(jsonl(self.docs), encoding="utf-8")
        refs = [dict(doc, lang=TGT_LANG) for doc in self.docs]
        (work / "reference.jsonl").write_text(jsonl(refs), encoding="utf-8")

    @property
    def records(self) -> int:
        return len(self.docs)

    def backend(self) -> str:
        return f"drop:{DROP_Q}"

    def args(self) -> list[str]:
        w = self.work
        return [
            "project", "-i", str(w / "input.jsonl"), "-o", str(w / "projected.jsonl"),
            "--backend", self.backend(), "--src-lang", SRC_LANG, "--tgt-lang", TGT_LANG,
            "--seed", str(self.seed), "--reference", str(w / "reference.jsonl"),
            "--report", "json", "--report-out", str(w / "report.json"),
            "--diagnostics", str(w / "diagnostics.jsonl"),
        ]

    def outputs(self) -> list[Path]:
        return [self.work / n for n in ("projected.jsonl", "diagnostics.jsonl", "report.json")]

    def check(self) -> tuple[int, list[str]]:
        """Return (failed records, problems)."""
        projected = read_jsonl(self.work / "projected.jsonl")
        diagnostics = read_jsonl(self.work / "diagnostics.jsonl")
        report = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        problems: list[str] = []
        bad: set[str] = set()
        if len(projected) != len(self.docs):
            return len(self.docs), [f"{len(projected)} projected records for {len(self.docs)} inputs"]
        for diag in diagnostics:
            bad.add(diag.get("id", ""))
            problems.append(f"unexpected diagnostic {diag.get('code')} for {diag.get('id')}")
        kept_all = 0
        expectation = variance = 0.0
        for src, out in zip(self.docs, projected):
            k = len(src["spans"])
            p_keep = (1 - DROP_Q) ** k
            expectation += p_keep
            variance += p_keep * (1 - p_keep)
            src_spans = Counter(_span_key(s) for s in src["spans"])
            out_spans = Counter(_span_key(s) for s in out.get("spans", []))
            if (
                out.get("id") != src["id"]
                or out.get("lang") != TGT_LANG
                or out.get("text") != src["text"]
                or out_spans - src_spans
                or any(s.get("label") is not None for s in out.get("spans", []))
            ):
                bad.add(src["id"])
                problems.append(f"{src['id']}: projected record is not a sub-annotation of its source")
            kept_all += out_spans == src_spans
        n = len(self.docs)
        counts = match_counts(
            [(o["text"], [_span_key(s) for s in o["spans"]]) for o in projected],
            [(d["text"], [_span_key(s) for s in d["spans"]]) for d in self.docs],
        )
        n_spans = sum(len(d["spans"]) for d in self.docs)
        report_issues = report_problems(report, n, n_spans, counts, kept_all / n)
        if n >= RATE_CHECK_MIN_DOCS and abs(kept_all - expectation) > RATE_CHECK_SE * math.sqrt(variance):
            report_issues.append(
                f"projection rate {kept_all / n:.4f} outside {RATE_CHECK_SE} SE of {expectation / n:.4f}"
            )
        if report_issues:
            return n, problems + report_issues
        return len(bad), problems


# --- project-http: NER-like spans through a loopback stub translator --------

# Document classes, chosen by hashing the source text (the wire protocol
# carries no ids). Shares are out of 20.
DROP_CLOSE, DUP_CLOSE, LOOKALIKE, VARIANT, INTACT = "drop_close", "dup_close", "lookalike", "variant", "intact"
LOOKALIKE_LITERAL = "<1>"
PLANTED_CODE = {DROP_CLOSE: "UNCLOSED_OPEN", DUP_CLOSE: "ORPHAN_CLOSE", LOOKALIKE: "IGNORED_LITERAL"}


def _hash(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def doc_class(plain: str) -> str:
    bucket = _hash(plain) % 20
    if bucket < 3:
        return (DROP_CLOSE, DUP_CLOSE, LOOKALIKE)[bucket]
    if bucket < 7:
        return VARIANT
    return INTACT


def span_form(plain: str, tag: str) -> str:
    """Surface form of a span's names in a VARIANT document."""
    return ("ref", "near", "far")[_hash(plain + "\0" + tag) % 3]


def translate_word(word: str, form: str = "ref") -> str:
    if word in NAME_FORMS:
        return NAME_FORMS[word][form]
    return WORDS.get(word, word)


def ner_doc(rng: random.Random) -> tuple[list[str], list[tuple[int, int]]]:
    """3-30 tokens with 1-4 disjoint entity spans of 1-3 capitalized names."""
    n = rng.randint(3, 30)
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    while len(tokens) < n:
        if len(spans) < 4 and rng.random() < 0.2:
            length = min(rng.randint(1, 3), n - len(tokens))
            spans.append((len(tokens), len(tokens) + length))
            tokens.extend(rng.choice(NAMES) for _ in range(length))
        else:
            tokens.append(rng.choice(VOCAB))
    if not spans:
        i = rng.randrange(n)
        tokens[i] = rng.choice(NAMES)
        spans.append((i, i + 1))
    return tokens, spans


class ProjectHttp(ProjectDrop):
    """`project` against the loopback stub translator in ``stub.py``."""

    def __init__(self, work: Path, seed: int, n_docs: int, endpoint: str, max_in_flight: int):
        self.work = work
        self.seed = seed
        self.endpoint = endpoint
        self.max_in_flight = max_in_flight
        rng = random.Random(f"project-http:{seed}:{n_docs}")
        self.docs, refs, self.expected = [], [], []
        for i in range(n_docs):
            doc_id = f"h{seed}-{i:06d}"
            tokens, token_spans = ner_doc(rng)
            plain, starts, ends = _layout(tokens)
            tags = [tag_name(j) for j in range(len(token_spans))]
            self.docs.append(
                _doc_record(doc_id, SRC_LANG, plain, [(t, starts[a], ends[b - 1]) for t, (a, b) in zip(tags, token_spans)])
            )
            refs.append(self._target(doc_id, plain, tokens, token_spans, tags, variant=False))
            self.expected.append(self._target(doc_id, plain, tokens, token_spans, tags, variant=True))
        self.refs = refs
        work.mkdir(parents=True, exist_ok=True)
        (work / "input.jsonl").write_text(jsonl(self.docs), encoding="utf-8")
        (work / "reference.jsonl").write_text(jsonl(refs), encoding="utf-8")

    @staticmethod
    def _target(doc_id, plain, tokens, token_spans, tags, variant: bool) -> dict:
        """The gold target (variant=False) or what decoding the stub's
        output must give (variant=True), built from the token structure."""
        cls = doc_class(plain) if variant else INTACT
        forms = ["ref"] * len(tokens)
        if cls == VARIANT:
            for tag, (a, b) in zip(tags, token_spans):
                forms[a:b] = [span_form(plain, tag)] * (b - a)
        text, starts, ends = _layout([translate_word(t, f) for t, f in zip(tokens, forms)])
        spans = [(tag, starts[a], ends[b - 1]) for tag, (a, b) in zip(tags, token_spans)]
        if cls == DROP_CLOSE:
            # The first close marker in the text belongs to span "a": its open
            # stays unclosed and the span runs to the end of the text.
            spans[0] = (spans[0][0], spans[0][1], len(text))
        elif cls == LOOKALIKE:
            shift = len(LOOKALIKE_LITERAL)
            text = LOOKALIKE_LITERAL + text
            spans = [(t, s + shift, e + shift) for t, s, e in spans]
        record = _doc_record(doc_id, TGT_LANG, text, sorted(spans, key=lambda s: (s[1], -s[2], s[0])))
        record["class"] = cls
        return record

    def backend(self) -> str:
        return self.endpoint

    def args(self) -> list[str]:
        return super().args() + ["--max-in-flight", str(self.max_in_flight)]

    def check(self) -> tuple[int, list[str]]:
        projected = read_jsonl(self.work / "projected.jsonl")
        diagnostics = read_jsonl(self.work / "diagnostics.jsonl")
        report = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        n = len(self.docs)
        if len(projected) != n:
            return n, [f"{len(projected)} projected records for {n} inputs"]
        problems: list[str] = []
        bad: set[str] = set()
        codes_by_id: dict[str, list[str]] = {}
        for diag in diagnostics:
            codes_by_id.setdefault(diag.get("id", ""), []).append(diag.get("code"))
        for want, ref, out in zip(self.expected, self.refs, projected):
            doc_id = want["id"]
            planted = PLANTED_CODE.get(want["class"])
            got = (out.get("text"), sorted(_span_key(s) for s in out.get("spans", [])))
            expected = (want["text"], sorted(_span_key(s) for s in want["spans"]))
            gold = (ref["text"], sorted(_span_key(s) for s in ref["spans"]))
            if (
                out.get("id") != doc_id
                or out.get("lang") != TGT_LANG
                or got != expected
                or codes_by_id.get(doc_id, []) != ([planted] if planted else [])
                or (want["class"] == INTACT and got != gold)
            ):
                bad.add(doc_id)
                problems.append(f"{doc_id} ({want['class']}): projected record or diagnostics differ from expectation")
        planted_codes = Counter(PLANTED_CODE[w["class"]] for w in self.expected if w["class"] in PLANTED_CODE)
        got_codes = Counter(d.get("code") for d in diagnostics)
        report_issues = []
        if got_codes != planted_codes:
            report_issues.append(f"diagnostic histogram {dict(got_codes)} != planted {dict(planted_codes)}")
        counts = match_counts(
            [(w["text"], [_span_key(s) for s in w["spans"]]) for w in self.expected],
            [(r["text"], [_span_key(s) for s in r["spans"]]) for r in self.refs],
        )
        signature_kept = sum(w["class"] not in (DROP_CLOSE, DUP_CLOSE) for w in self.expected)
        n_spans = sum(len(r["spans"]) for r in self.refs)
        report_issues += report_problems(report, n, n_spans, counts, signature_kept / n)
        if report_issues:
            return n, problems + report_issues
        return len(bad), problems


# --- prep-markup: raw HTML-like markup pairs ---------------------------------

PAIRED_TYPES = ["span", "b", "i", "em", "strong", "a", "u", "code", "mark", "small", "sup", "sub", "q", "cite", "abbr", "font"]
VOID_TYPES = ["br", "img", "hr", "wbr", "input"]
ATTRIBUTES = [
    "",
    ' class="c{n}"',
    ' href="https://example.org/p/{n}.html"',
    ' id="x{n}" class="hl"',
    ' title="note {n}"',
    " data-k='{n}'",
    ' style="color:#{n:03d}"',
]
KEPT, UNTAGGED, UNMAPPED = "kept", "DROP_UNTAGGED", "UNMAPPED_TYPE"
_LETTER_TAG_RE = re.compile(r"<(/?)([a-z]+)(/?)>")


def _attrs(rng: random.Random) -> str:
    return rng.choice(ATTRIBUTES).format(n=rng.randrange(1000))


def markup_items(rng: random.Random, tokens: list[str]) -> list[tuple]:
    """Elements around tokens: ("text", tok) | ("open", type) | ("close", type) | ("void", type)."""
    items: list[tuple] = []
    stack: list[str] = []
    for tok in tokens:
        if rng.random() < 0.06:
            items.append(("void", rng.choice(VOID_TYPES)))
        while len(stack) < 3 and rng.random() < 0.15:
            stack.append(rng.choice(PAIRED_TYPES))
            items.append(("open", stack[-1]))
        items.append(("text", tok))
        while stack and rng.random() < 0.4:
            items.append(("close", stack.pop()))
    items.extend(("close", t) for t in reversed(stack))
    if not any(kind in ("open", "void") for kind, _ in items):
        i = rng.randrange(len(tokens))
        tag = rng.choice(PAIRED_TYPES)
        text_positions = [j for j, (kind, _) in enumerate(items) if kind == "text"]
        j = text_positions[i]
        items[j : j + 1] = [("open", tag), items[j], ("close", tag)]
    return items


def render(items: list[tuple], rng: random.Random | None, letters: dict[str, str] | None = None) -> str:
    """Raw markup (with attributes drawn from rng) or lettered markup."""
    out: list[str] = []
    seen_text = False
    for kind, value in items:
        if kind == "text":
            if seen_text:
                out.append(" ")
            out.append(value)
            seen_text = True
            continue
        name = letters[value] if letters is not None else value
        attrs = "" if letters is not None else _attrs(rng)
        if kind == "open":
            out.append(f"<{name}{attrs}>")
        elif kind == "close":
            out.append(f"</{name}>")
        else:
            slash = "/" if letters is not None or rng.random() < 0.5 else " /"
            out.append(f"<{name}{attrs}{slash}>")
    return "".join(out)


def _directed(pair_id: str, direction: str, src_lang: str, tgt_lang: str, src: str, tgt: str) -> dict:
    return {
        "id": pair_id,
        "direction": direction,
        "src_lang": src_lang,
        "tgt_lang": tgt_lang,
        "src_tagged": src,
        "tgt_tagged": tgt,
    }


class PrepMarkup:
    """`prep` over raw markup pairs with planted untagged and unmapped pairs."""

    def __init__(self, work: Path, seed: int, n_pairs: int):
        self.work = work
        self.seed = seed
        rng = random.Random(f"prep-markup:{seed}:{n_pairs}")
        self.pairs: list[dict] = []
        self.expected: dict[str, dict] = {}
        records = []
        for i in range(n_pairs):
            pair_id = f"p{seed}-{i:06d}"
            tokens = [rng.choice(VOCAB) for _ in range(rng.randint(3, 30))]
            target_tokens = [WORDS[t] for t in tokens]
            draw = rng.random()
            cls = UNTAGGED if draw < 0.07 else UNMAPPED if draw < 0.12 else KEPT
            if cls == UNTAGGED:
                src_items = [("text", t) for t in tokens]
                tgt_items = [("text", t) for t in target_tokens]
            else:
                src_items = markup_items(rng, tokens)
                words = iter(target_tokens)
                tgt_items = [("text", next(words)) if kind == "text" else (kind, v) for kind, v in src_items]
            if cls == UNMAPPED:
                used = {v for kind, v in src_items if kind != "text"}
                victim = next(v for kind, v in src_items if kind in ("open", "void"))
                stranger = rng.choice([t for t in PAIRED_TYPES + VOID_TYPES if t not in used])
                tgt_items = [(k, stranger if v == victim and k != "text" else v) for k, v in tgt_items]
            record = {
                "id": pair_id,
                "src_lang": SRC_LANG,
                "tgt_lang": TGT_LANG,
                "src_markup": render(src_items, rng),
                "tgt_markup": render(tgt_items, rng),
            }
            records.append(record)
            letters: dict[str, str] = {}
            for kind, value in src_items:
                if kind != "text" and value not in letters:
                    letters[value] = tag_name(len(letters))
            instances = sum(kind in ("open", "void") for kind, _ in src_items)
            self.expected[pair_id] = {
                "class": cls,
                "src": render(src_items, None, letters) if cls == KEPT else None,
                "tgt": render(tgt_items, None, letters) if cls == KEPT else None,
                "src_plain": " ".join(tokens),
                "tgt_plain": " ".join(target_tokens),
                "instances": instances,
                "unique": len(letters),
            }
        work.mkdir(parents=True, exist_ok=True)
        (work / "pairs.jsonl").write_text(jsonl(records), encoding="utf-8")
        self.n_pairs = n_pairs

    @property
    def records(self) -> int:
        return self.n_pairs

    def args(self) -> list[str]:
        w = self.work
        return ["prep", "-i", str(w / "pairs.jsonl"), "--out-dir", str(w / "corpus"), "--seed", str(self.seed)]

    def outputs(self) -> list[Path]:
        c = self.work / "corpus"
        return [c / "train.jsonl", c / "dev.jsonl", c / "provenance.json"]

    def _expected_provenance(self) -> dict:
        kept = [e for e in self.expected.values() if e["class"] == KEPT]
        return {
            "input_pairs": self.n_pairs,
            "kept_pairs": len(kept),
            "dropped_untagged": sum(e["class"] == UNTAGGED for e in self.expected.values()),
            "dropped_unmapped": sum(e["class"] == UNMAPPED for e in self.expected.values()),
            "directed_examples": 2 * len(kept),
            "dev_ids": math.ceil(0.05 * len(kept)),
            "dev_fraction": 0.05,
            "seed": self.seed,
            "avg_tags_per_pair": sum(e["instances"] for e in kept) / len(kept) if kept else 0.0,
            "max_tags_per_pair": max((e["instances"] for e in kept), default=0),
            "max_unique_tags_per_pair": max((e["unique"] for e in kept), default=0),
        }

    @staticmethod
    def _letters_in_order(tagged: str) -> bool:
        first: list[str] = []
        for match in _LETTER_TAG_RE.finditer(tagged):
            if match.group(2) not in first:
                first.append(match.group(2))
        return first == [tag_name(i) for i in range(len(first))]

    def check(self) -> tuple[int, list[str]]:
        corpus = self.work / "corpus"
        provenance = json.loads((corpus / "provenance.json").read_text(encoding="utf-8"))
        by_id: dict[str, list[tuple[str, dict]]] = {}
        dev_ids = set()
        for split in ("train", "dev"):
            for record in read_jsonl(corpus / f"{split}.jsonl"):
                by_id.setdefault(record.get("id"), []).append((split, record))
                if split == "dev":
                    dev_ids.add(record.get("id"))
        dropped = {d.get("id"): d.get("reason") for d in provenance.get("dropped", [])}
        problems: list[str] = []
        bad: set[str] = set()
        for pair_id, want in self.expected.items():
            got = by_id.pop(pair_id, [])
            if want["class"] != KEPT:
                if got or dropped.get(pair_id) != want["class"]:
                    bad.add(pair_id)
                    problems.append(f"{pair_id}: expected dropped as {want['class']}, got {dropped.get(pair_id)}")
                continue
            splits = {split for split, _ in got}
            records = {r.get("direction"): r for _, r in got}
            forward, reverse = records.get("forward"), records.get("reverse")
            ok = len(got) == 2 and len(splits) == 1 and pair_id not in dropped
            ok = ok and forward == _directed(pair_id, "forward", SRC_LANG, TGT_LANG, want["src"], want["tgt"])
            ok = ok and reverse == _directed(pair_id, "reverse", TGT_LANG, SRC_LANG, want["tgt"], want["src"])
            ok = (
                ok
                and _LETTER_TAG_RE.sub("", forward["src_tagged"]) == want["src_plain"]
                and _LETTER_TAG_RE.sub("", forward["tgt_tagged"]) == want["tgt_plain"]
                and self._letters_in_order(forward["src_tagged"])
            )
            if not ok:
                bad.add(pair_id)
                problems.append(f"{pair_id}: directed examples differ from expectation")
        aggregate = []
        if by_id:
            aggregate.append(f"{len(by_id)} unexpected ids in the corpus")
        if provenance.get("read_diagnostics"):
            aggregate.append(f"{len(provenance['read_diagnostics'])} unexpected read diagnostics")
        got_prov = provenance.get("provenance", {})
        for key, value in self._expected_provenance().items():
            got = got_prov.get(key)
            if not isinstance(got, (int, float)) or not math.isclose(got, value, rel_tol=1e-9):
                aggregate.append(f"provenance.{key}: {got} != expected {value}")
        if len(dev_ids) != math.ceil(0.05 * got_prov.get("kept_pairs", -1)):
            aggregate.append(f"{len(dev_ids)} dev ids for {got_prov.get('kept_pairs')} kept pairs")
        if aggregate:
            return self.n_pairs, problems + aggregate
        return len(bad), problems
