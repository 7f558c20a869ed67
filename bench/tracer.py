"""Run the labelproj CLI with a span around every call into each layer.

usage: PYTHONPATH=src python bench/tracer.py SPANS_OUT -- <labelproj arguments>

Each traced public function is replaced, in its defining module and in every
``labelproj`` module that imported it by name, by a wrapper that records
(span id, parent span id, name, start, end, count). ``cli.main`` is the root
span. Spans stay in memory and are written to SPANS_OUT as JSON when the
command returns; the exit code is the command's.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from time import perf_counter

TRACED_FUNCTIONS = {
    "dataio": ("load", "dump", "atomic_write_text"),
    "model": ("validate",),
    "codec": ("encode", "decode", "scan_markers"),
    "evaluation": ("build_report", "label_match_f1", "projection_rate"),
    "similarity": ("gestalt_ratio",),
    "corpus": ("read_raw_pairs", "prepare_training_corpus", "tag_swap"),
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# What each span counts, from the call's arguments and result.
COUNTERS = {
    "dataio.load": lambda args, result: [len(result[0]), _file_size(getattr(args[0], "path", None))],
    "dataio.atomic_write_text": lambda args, result: _file_size(args[0]),
    "codec.decode": lambda args, result: len(result[1]),
    "evaluation.projection_rate": lambda args, result: len(args[0]),
    "similarity.gestalt_ratio": lambda args, result: int(args[0] == args[1]),
    "backends.translate_batch": lambda args, result: len(args[1]),
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                # Spans on other threads have no parent: they overlap the main thread's.
                root = 0 if threading.current_thread() is threading.main_thread() else -1
                stack = local.stack = [root]
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append((span_id, parent, name, start, end, count(args, result) if count else None))
            return result

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder) -> None:
    """Wrap the traced functions wherever labelproj modules refer to them."""
    import labelproj.backends
    import labelproj.cli  # noqa: F401  (imports every layer)

    modules = [m for name, m in sys.modules.items() if name.startswith("labelproj") and m is not None]
    for layer, names in TRACED_FUNCTIONS.items():
        module = sys.modules[f"labelproj.{layer}"]
        for fname in names:
            original = getattr(module, fname, None)
            if original is None:
                continue
            wrapped = recorder.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    base = labelproj.backends.TranslationBackend
    for cls in vars(labelproj.backends).values():
        if isinstance(cls, type) and issubclass(cls, base) and "translate_batch" in vars(cls):
            cls.translate_batch = recorder.wrap("backends.translate_batch", vars(cls)["translate_batch"])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    from labelproj import cli

    start = perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        end = perf_counter()
        recorder.spans.append((0, -1, "cli.main", start, end, None))
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
