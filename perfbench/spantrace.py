"""In-memory span tracer and the wrappers that feed it.

A span is (name, start, end, parent); spans of one repetition share a run
id. Spans stay in memory and are written out once, when the repetition
ends. Self time is a span's duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.

The coarse spans (read, set-up, optimizer, save, load, decode chunks,
write) are opened by the benchmark around its own calls and also feed the
end-to-end metrics. `install_wrappers` adds the fine spans around the
library functions that `spancrf.training` calls by name; it is used only
in traced runs.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

# library functions that spancrf.training imports by name, and their span names
WRAPPED = {
    "build_lattice": "lattice.build",
    "allowed_mask": "inference.allowed_mask",
    "forward": "inference.forward",
    "backward": "inference.backward",
    "viterbi": "inference.viterbi",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> float:
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {self.spans[sid][0]} closed out of order")
        self._stack.pop()
        span = self.spans[sid]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def duration(self, sid: int) -> float:
        return self.spans[sid][2] - self.spans[sid][1]

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and each duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for sid, (name, start, end, _parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
            row["durations"].append(end - start)
        return table

    def write(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                record = {"run": self.run_id, "id": sid, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")


def install_wrappers(tracer: Tracer) -> None:
    """Trace the lattice and DP entry points where spancrf.training reaches them."""
    import spancrf.training as training

    for attr, name in WRAPPED.items():
        setattr(training, attr, tracer.wrap(getattr(training, attr), name))

    build = training.build_lattice

    def counted_build(sentence, mode):
        lattice = build(sentence, mode)
        tracer.counts["lattice.spans"] += len(lattice)
        tracer.counts["lattice.tokens"] += lattice.n
        return lattice

    training.build_lattice = counted_build


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (training, then decoding)."""
    table = tracer.summary()

    def total(name):
        return table[name]["total_s"] if name in table else 0.0

    def self_time(name):
        return table[name]["self_s"] if name in table else 0.0

    tokens = tracer.counts["lattice.tokens"]
    objective = table.get("training.objective", {"durations": [0.0], "calls": 0})
    return {
        "lattice.build_s": total("lattice.build"),
        "lattice.calls": table["lattice.build"]["calls"] if "lattice.build" in table else 0,
        "lattice.spans_per_token": tracer.counts["lattice.spans"] / tokens if tokens else 0.0,
        "inference.allowed_mask_s": total("inference.allowed_mask"),
        "training.setup_self_s": self_time("training.setup"),
        "training.objective_s": statistics.median(objective["durations"]),
        "training.objective_calls": objective["calls"],
        "inference.forward_s": total("inference.forward"),
        "inference.backward_s": total("inference.backward"),
        "training.objective_self_s": self_time("training.objective"),
        "optimizer.self_s": self_time("optimizer.minimize"),
        "training.decode_self_s": self_time("training.decode_chunk"),
        "inference.viterbi_s": total("inference.viterbi"),
        "training.model_load_s": total("training.model_load"),
        "training.model_save_s": total("training.model_save"),
        "corpus.read_s": total("corpus.read"),
        "corpus.write_s": total("corpus.write"),
    }
