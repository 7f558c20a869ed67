"""Seeded benchmark for `labelproj project` and `labelproj prep`.

usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --smoke

Each workload builds its inputs from --seed (``workloads.py``), then runs the
CLI from the working tree as a separate process,
``PYTHONPATH=src python -m labelproj.cli ...``, in a closed loop: one
invocation at a time, for S seconds. Every output is checked against the
benchmark's own expectation. With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it alternates untraced invocations with invocations
under ``tracer.py`` and reports per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

--smoke runs every workload, traced and untraced, on tiny inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads
from stub import StubServer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

# Records per measured invocation: about 1 s of work each on a 2-core host.
SIZES = {"project-drop": 2000, "project-http": 2000, "prep-markup": 10000}
# Enough documents for the projection-rate check, which needs at least 200.
SMOKE_SIZE = 300
MIN_ROUNDS = 3
# Stop starting rounds this long after start, whatever --seconds says, and kill
# an invocation that hangs, so that a run always ends within 180 s. A normal
# invocation takes under 3 s.
HARD_STOP_S = 90.0
INVOCATION_TIMEOUT_S = 30.0
MAX_IN_FLIGHT = min(2, os.cpu_count() or 1)

END_TO_END = {"docs_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "cli.wall_s": "s",
    "cli.self_s": "s",
    "cli.trace_overhead_s": "s",
    "dataio.load_s": "s",
    "dataio.load_calls": "count",
    "dataio.records_read": "count",
    "dataio.bytes_read": "B",
    "dataio.dump_s": "s",
    "dataio.write_s": "s",
    "dataio.bytes_written": "B",
    "model.validate_s": "s",
    "model.validate_calls": "count",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.scan_s": "s",
    "codec.scan_calls": "count",
    "codec.decode_diagnostics": "count",
    "backends.translate_s": "s",
    "backends.http_requests": "count",
    "backends.http_retries": "count",
    "backends.stub_busy_s": "s",
    "backends.bytes_sent": "B",
    "backends.bytes_received": "B",
    "evaluation.build_report_s": "s",
    "evaluation.label_match_f1_s": "s",
    "evaluation.projection_rate_s": "s",
    "evaluation.projection_rate_pairs": "count",
    "similarity.gestalt_s": "s",
    "similarity.gestalt_calls": "count",
    "similarity.gestalt_identical_calls": "count",
    "corpus.read_raw_pairs_s": "s",
    "corpus.prepare_s": "s",
    "corpus.tag_swap_s": "s",
    "corpus.tag_swap_calls": "count",
}
# Per-layer metric -> (span name, what to sum): self time, calls, or a count
# the span carries (an int, or an index into a list of ints).
SPAN_METRICS = {
    "dataio.load_s": ("dataio.load", "self"),
    "dataio.load_calls": ("dataio.load", "calls"),
    "dataio.records_read": ("dataio.load", 0),
    "dataio.bytes_read": ("dataio.load", 1),
    "dataio.dump_s": ("dataio.dump", "self"),
    "dataio.write_s": ("dataio.atomic_write_text", "self"),
    "dataio.bytes_written": ("dataio.atomic_write_text", "count"),
    "model.validate_s": ("model.validate", "self"),
    "model.validate_calls": ("model.validate", "calls"),
    "codec.encode_s": ("codec.encode", "self"),
    "codec.decode_s": ("codec.decode", "self"),
    "codec.scan_s": ("codec.scan_markers", "self"),
    "codec.scan_calls": ("codec.scan_markers", "calls"),
    "codec.decode_diagnostics": ("codec.decode", "count"),
    "backends.translate_s": ("backends.translate_batch", "self"),
    "evaluation.build_report_s": ("evaluation.build_report", "self"),
    "evaluation.label_match_f1_s": ("evaluation.label_match_f1", "self"),
    "evaluation.projection_rate_s": ("evaluation.projection_rate", "self"),
    "evaluation.projection_rate_pairs": ("evaluation.projection_rate", "count"),
    "similarity.gestalt_s": ("similarity.gestalt_ratio", "self"),
    "similarity.gestalt_calls": ("similarity.gestalt_ratio", "calls"),
    "similarity.gestalt_identical_calls": ("similarity.gestalt_ratio", "count"),
    "corpus.read_raw_pairs_s": ("corpus.read_raw_pairs", "self"),
    "corpus.prepare_s": ("corpus.prepare_training_corpus", "self"),
    "corpus.tag_swap_s": ("corpus.tag_swap", "self"),
    "corpus.tag_swap_calls": ("corpus.tag_swap", "calls"),
}


class BenchError(Exception):
    """The benchmark cannot run: no result is printed and the exit code is 2."""


def make_workload(name: str, work: Path, seed: int, size: int, endpoint: str | None):
    if name == "project-drop":
        return workloads.ProjectDrop(work, seed, size)
    if name == "project-http":
        return workloads.ProjectHttp(work, seed, size, endpoint, MAX_IN_FLIGHT)
    return workloads.PrepMarkup(work, seed, size)


class Launcher:
    """Runs CLI invocations through ``spawner.py``; see there for why."""

    def __enter__(self) -> "Launcher":
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=INVOCATION_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def invoke(self, args: list[str], log: Path, spans_out: Path | None = None) -> tuple[float, float, int]:
        """Run one CLI invocation; return (wall s, the child's own peak RSS MiB, exit code)."""
        if spans_out is None:
            cmd = [sys.executable, "-m", "labelproj.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_out), "--", *args]
        request = {
            "cmd": cmd,
            "cwd": str(ROOT),
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "log": str(log),
            "timeout": INVOCATION_TIMEOUT_S,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process ended unexpectedly")
        result = json.loads(reply)
        return result["wall"], result["maxrss_kib"] / 1024.0, result["code"]


class Checked:
    """Runs a workload's check, once per distinct set of output bytes."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.verified: str | None = None

    def __call__(self, code: int) -> tuple[int, list[str]]:
        if code != 0:
            return self.workload.records, [f"exit code {code}"]
        digest = hashlib.sha256()
        for path in self.workload.outputs():
            digest.update(path.read_bytes() if path.exists() else b"\0missing")
        if digest.hexdigest() == self.verified:
            return 0, []
        try:
            failed, problems = self.workload.check()
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            return self.workload.records, [f"unreadable output: {exc!r}"]
        if failed == 0 and not problems:
            self.verified = digest.hexdigest()
        return failed, problems


# Host-speed calibration. On a shared host the speed of one core drifts by a
# factor of up to 1.8 over minutes, and CPU time drifts with wall time. Every
# invocation is bracketed by a fixed pure-Python kernel (regex scan, dicts,
# JSON, sort, join: the kinds of work the CLI does), and its wall time is
# scaled by CAL_REF_S / (mean of the kernel times just before and after it).
# Reported times are thus at the speed where the kernel takes CAL_REF_S.
CAL_REF_S = 0.020
_CAL_TEXT = " ".join(f"<w{i % 7}>tok{i}</w{i % 7}>" for i in range(400))
_CAL_RE = re.compile(r"<(/?)(\w+)>")


def calibrate() -> float:
    """Median wall time of three repetitions of the calibration kernel."""
    times = []
    for _ in range(3):
        start = perf_counter()
        for _ in range(30):
            counts: dict[str, int] = {}
            for match in _CAL_RE.finditer(_CAL_TEXT):
                counts[match.group(2)] = counts.get(match.group(2), 0) + 1
            rows = json.loads(json.dumps([{"k": k, "v": v, "s": k * 3} for k, v in counts.items()] * 20))
            rows.sort(key=lambda r: (r["v"], r["k"]))
            "".join(r["s"] for r in rows).split("w")
        times.append(perf_counter() - start)
    return statistics.median(times)


def layer_metrics(spans: list, stub: dict) -> dict[str, float]:
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        covered[parent] += end - start
    agg: dict[str, dict] = defaultdict(lambda: {"self": 0.0, "calls": 0, "count": 0, 0: 0, 1: 0})
    for span_id, _, name, start, end, count in spans:
        entry = agg[name]
        entry["self"] += end - start - covered[span_id]
        entry["calls"] += 1
        if isinstance(count, list):
            entry[0] += count[0]
            entry[1] += count[1]
        elif count is not None:
            entry["count"] += count
    root = next(s for s in spans if s[2] == "cli.main")
    metrics = {"cli.wall_s": root[4] - root[3], "cli.self_s": agg["cli.main"]["self"]}
    for metric, (name, field) in SPAN_METRICS.items():
        metrics[metric] = agg[name][field] if name in agg else 0
    metrics.update(
        {
            "backends.http_requests": stub.get("requests", 0),
            "backends.http_retries": stub.get("retries", 0),
            "backends.stub_busy_s": stub.get("busy_s", 0.0),
            "backends.bytes_sent": stub.get("bytes_in", 0),
            "backends.bytes_received": stub.get("bytes_out", 0),
        }
    )
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, size: int) -> dict:
    """Run one workload for about `seconds`; return the result object."""
    if not (SRC / "labelproj" / "cli.py").is_file():
        raise BenchError(f"no labelproj sources under {SRC}")
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    attempted = failed = 0
    problems: list[str] = []
    samples: list[dict] = []  # one per measured invocation, in order
    with contextlib.ExitStack() as stack:
        launcher = stack.enter_context(Launcher())
        stub = stack.enter_context(StubServer()) if name == "project-http" else None
        endpoint = stub.endpoint if stub else None
        full = make_workload(name, work / "full", seed, size, endpoint)
        one = make_workload(name, work / "one", seed, 1, endpoint)
        checks = {"full": Checked(full), "one": Checked(one)}

        def attempt(kind: str, traced: bool = False) -> None:
            nonlocal attempted, failed
            workload = full if kind == "full" else one
            spans_out = work / "spans.json" if traced else None
            if stub:
                stub.counters.reset()
            cal = calibrate()
            wall, peak, code = launcher.invoke(workload.args(), work / f"{kind}.log", spans_out)
            bad, found = checks[kind](code)
            if stub and stub.counters.retries:
                bad, found = workload.records, found + [f"{stub.counters.retries} HTTP retries"]
            attempted += workload.records
            failed += bad
            problems.extend(found)
            layer = None
            if traced and code == 0:
                layer = layer_metrics(json.loads(spans_out.read_text()), vars(stub.counters) if stub else {})
            samples.append({"kind": kind + ("-traced" if traced else ""), "wall": wall, "rss": peak, "cal": cal, "layer": layer})

        # Warm-up: imports, bytecode compilation and the file cache.
        _, _, code = launcher.invoke(one.args(), work / "warmup.log")
        if code != 0:
            raise BenchError(f"labelproj exited {code} on a one-record input; see {work / 'warmup.log'}")
        start = perf_counter()
        rounds = 0
        while (rounds < MIN_ROUNDS or perf_counter() - start < seconds) and perf_counter() - start < HARD_STOP_S:
            if trace:
                for traced in (False, True) if rounds % 2 == 0 else (True, False):
                    attempt("full", traced)
            else:
                attempt("one")
                attempt("full")
            rounds += 1
        final_cal = calibrate()

    for sample, cal_after in zip(samples, [s["cal"] for s in samples[1:]] + [final_cal]):
        sample["scale"] = CAL_REF_S / ((sample["cal"] + cal_after) / 2)
    by_kind: dict[str, list[dict]] = defaultdict(list)
    for sample in samples:
        by_kind[sample["kind"]].append(sample)

    def scaled_walls(kind: str) -> list[float]:
        return [s["wall"] * s["scale"] for s in by_kind[kind]]

    if trace:
        layers = [(s["layer"], s["scale"]) for s in by_kind["full-traced"] if s["layer"]]
        # Counts repeat exactly between invocations; median_low keeps them whole.
        metrics = {
            m: (
                statistics.median(layer[m] * scale for layer, scale in layers)
                if unit == "s"
                else statistics.median_low(layer[m] for layer, _ in layers)
            )
            if layers
            else 0
            for m, unit in PER_LAYER.items()
            if m != "cli.trace_overhead_s"
        }
        metrics["cli.trace_overhead_s"] = statistics.median(scaled_walls("full-traced")) - statistics.median(
            scaled_walls("full")
        )
        units = PER_LAYER
    else:
        metrics = {
            "docs_per_s": statistics.median(full.records / w for w in scaled_walls("full")),
            "peak_rss_mib": statistics.median(s["rss"] for s in by_kind["full"]),
            "setup_s": statistics.median(scaled_walls("one")),
        }
        units = END_TO_END
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    for kind, group in by_kind.items():
        raw = [s["wall"] for s in group]
        scaled = scaled_walls(kind)
        print(
            f"{kind}: n={len(group)} wall median {statistics.median(raw):.4f} s raw"
            f" ({min(raw):.4f}-{max(raw):.4f}), {statistics.median(scaled):.4f} s scaled"
            f" ({min(scaled):.4f}-{max(scaled):.4f}), scale median {statistics.median(s['scale'] for s in group):.4f}"
        )
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def smoke() -> int:
    """Every workload and every check on tiny inputs, traced and untraced."""
    ok = True
    for name in SIZES:
        for trace in (False, True):
            result = run(name, seed=1, seconds=0, trace=trace, size=SMOKE_SIZE)
            names = PER_LAYER if trace else END_TO_END
            good = result["correct"] and result["failed"] == 0 and set(result["metrics"]) == set(names)
            ok &= good
            print(f"{name} trace={int(trace)}: {'ok' if good else 'FAILED'} {json.dumps(result)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload on tiny inputs")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
