"""In-memory spans for the traced run, written as JSON-lines at the end.

The program under test is not edited by the benchmark, so every span is
recorded from outside: around a call into a layer's public function, or
rebuilt from client timestamps plus ``ServiceTrace`` deltas.  A span is
``{id, name, start, end, parent, request}``; spans of one request share
``request``; the stage replay uses request ids ``"replay-<k>"``.
"""

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .stats import median

#: The stages a request's latency is budgeted over, in blocking order.
REPLAY_STAGES = ("pipeline.prepare", "executor.fanout",
                 "pipeline.repack", "pipeline.finish")


class SpanLog:
    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request: Any = None) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent, "request": request})
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             request: Any = None) -> Iterator[int]:
        span_id = self.add(name, time.perf_counter(), 0.0, parent, request)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = time.perf_counter()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of its
    interval that its child spans cover (overlapping children are
    counted once, children are clipped to the parent)."""
    spans = list(spans)
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def _durations(spans: Iterable[Dict[str, Any]], name: str,
               replay: bool) -> List[float]:
    return [s["end"] - s["start"] for s in spans
            if s["name"] == name
            and str(s["request"]).startswith("replay") == replay]


def stage_budget(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """The stage-level budget of one traced workload, from its spans
    alone: queue wait and service overhead from the live requests, the
    four pipeline stages from the stage replay, against the median live
    request.  ``unattributed_share`` is what the stages leave over."""
    requests = _durations(spans, "request", replay=False)
    waits = _durations(spans, "service.queue_wait", replay=False)
    replies = _durations(spans, "service.reply", replay=False)
    budget = {"latency_p50_s": median(requests) if requests else 0.0,
              "service.queue_wait": sum(waits) / len(waits) if waits else 0.0,
              "service.overhead": sum(replies) / len(replies) if replies else 0.0}
    for stage in REPLAY_STAGES:
        seen = _durations(spans, stage, replay=True)
        budget[stage] = median(seen) if seen else 0.0
    accounted = sum(v for k, v in budget.items() if k != "latency_p50_s")
    budget["unattributed_share"] = \
        1.0 - accounted / budget["latency_p50_s"] if requests else 0.0
    return budget


def report(path: str) -> str:
    """Human-readable budget of one JSON-lines trace."""
    spans = read_jsonl(path)
    selfs = self_times(spans)
    by_name: Dict[str, List[float]] = {}
    self_by_name: Dict[str, float] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
        self_by_name[span["name"]] = \
            self_by_name.get(span["name"], 0.0) + selfs[span["id"]]
    lines = [path,
             f"{'span':<22} {'count':>7} {'median_s':>10} {'total_s':>10} {'self_s':>10}"]
    for name, durs in sorted(by_name.items()):
        lines.append(f"{name:<22} {len(durs):>7} {median(durs):>10.6f} "
                     f"{sum(durs):>10.4f} {self_by_name[name]:>10.4f}")
    budget = stage_budget(spans)
    p50 = budget["latency_p50_s"]
    lines.append(f"stage budget against the median live request ({p50:.6f} s):")
    for key, value in budget.items():
        if key in ("latency_p50_s", "unattributed_share"):
            continue
        share = value / p50 if p50 else 0.0
        lines.append(f"  {key:<20} {value:>10.6f} s {share:>7.1%}")
    lines.append(f"  {'unattributed':<20} {'':>12} {budget['unattributed_share']:>7.1%}")
    return "\n".join(lines)
