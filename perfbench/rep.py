"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/rep.py SPEC.json RESULT.json

SPEC names the files of both phases. The train phase takes the path of
`spancrf train` (read_conll -> fit -> Model.save); the predict phase then
takes the path of `spancrf predict` on a held-out corpus (Model.load ->
decode_corpus in fixed-size chunks -> write_conll). Each repetition gets its own process
because lattice._lattice is a process-wide memo that would let later
repetitions skip lattice builds, and because ru_maxrss is a per-process
high-water mark.

Output checks run after the timed part: the objective is finite and the
optimizer stopped as the workload intends; every predicted span lies
inside its sentence and its lattice; the written predictions read back
identical. The result records which fits and chunks failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import sys
import time
import traceback

import scipy.optimize

from spancrf.corpus import read_conll, read_predictions, write_conll
from spancrf.evaluation import score
from spancrf.lattice import Mode, build_lattice
from spancrf.training import Model, TrainConfig, decode_corpus, fit
from spantrace import Tracer, install_wrappers, layer_metrics


class OptimizerProbe:
    """Wraps scipy.optimize.minimize as fit() reaches it.

    Closes the set-up span when the optimizer starts, stamps the first
    objective evaluation, keeps the optimizer's result and, when traced,
    opens a span per objective evaluation.
    """

    def __init__(self, tracer: Tracer, traced: bool):
        self.tracer = tracer
        self.traced = traced
        self.setup_span: int | None = None
        self.first_eval: float | None = None
        self.result = None
        original = scipy.optimize.minimize

        def minimize(fun, x0, *args, **kwargs):
            self.tracer.end(self.setup_span)
            sid = self.tracer.begin("optimizer.minimize")

            def objective(w):
                if self.first_eval is None:
                    self.first_eval = time.perf_counter()
                if not self.traced:
                    return fun(w)
                with self.tracer.span("training.objective"):
                    return fun(w)

            try:
                self.result = original(objective, x0, *args, **kwargs)
            finally:
                self.tracer.end(sid)
            return self.result

        scipy.optimize.minimize = minimize


def train_phase(spec: dict, tracer: Tracer, probe: OptimizerProbe) -> dict:
    root = tracer.begin("train")
    t0 = time.perf_counter()
    probe.setup_span = tracer.begin("training.setup")
    with tracer.span("corpus.read"):
        corpus = read_conll(spec["corpus"])
    config = TrainConfig(l2=spec["l2"], max_iter=spec["max_iter"], workers=1)
    model = fit(corpus, config, Mode(spec["mode"], spec["max_len"]))
    with tracer.span("training.model_save") as save:
        model.save(spec["model"])
    train_s = tracer.end(root)
    result = probe.result
    setup_s = probe.first_eval - t0
    save_s = tracer.duration(save)
    if spec["expect"] == "converged":
        stopped_as_intended = bool(result.success)
    else:  # "cap": the workload runs a fixed number of iterations
        stopped_as_intended = result.status == 1 and result.nit == spec["max_iter"]
    return {
        "setup_s": setup_s,
        "train_s": train_s,
        "save_s": save_s,
        "iter_s": (train_s - setup_s - save_s) / max(result.nit, 1),
        "iters": int(result.nit),
        "evals": int(result.nfev),
        "status": int(result.status),
        "message": str(result.message),
        "objective": repr(float(result.fun)),
        "num_features": len(model.index),
        "ok": math.isfinite(result.fun) and stopped_as_intended,
    }


def predict_phase(spec: dict, tracer: Tracer) -> dict:
    root = tracer.begin("predict")
    with tracer.span("training.model_load") as load:
        model = Model.load(spec["model"])
    with tracer.span("corpus.read") as read:
        sentences = read_conll(spec["corpus"])
    # Python memory blocks still alive after the stream: the lattice memo and
    # the predictions. Resident-set growth would hide the memo, because the
    # heap the fit just freed absorbs it.
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    size = spec["chunk"]
    chunk_s: list[float] = []
    failed: set[int] = set()
    preds: list = []
    for k, start in enumerate(range(0, len(sentences), size)):
        part = sentences[start : start + size]
        try:
            with tracer.span("training.decode_chunk") as sid:
                out = decode_corpus(model, part)
        except Exception:
            traceback.print_exc()
            failed.add(k)
            out = [()] * len(part)
        chunk_s.append(tracer.duration(sid))
        preds.extend(out)
    gc.collect()
    retained_blocks = sys.getallocatedblocks() - blocks_before
    with tracer.span("corpus.write") as write:
        write_conll(sentences, preds, spec["pred"])
    tracer.end(root)

    # output checks, untimed
    read_back = read_predictions(spec["pred"])
    for i, (sentence, spans) in enumerate(zip(sentences, preds)):
        allowed = build_lattice(sentence, model.mode).allowed
        inside = all(1 <= s.start <= s.end <= sentence.n and (s.start, s.end) in allowed for s in spans)
        same = i < len(read_back) and tuple(read_back[i]) == tuple(spans)
        if not (inside and same):
            failed.add(i // size)
    if len(read_back) != len(sentences):
        failed.update(range(len(chunk_s)))
    decoded = [[(s.start, s.end, s.etype) for s in spans] for spans in preds]
    return {
        "load_s": tracer.duration(load),
        "read_s": tracer.duration(read),
        "write_s": tracer.duration(write),
        "chunk_s": chunk_s,
        "sentences": len(sentences),
        "failed_chunks": sorted(failed),
        "retained_blocks": retained_blocks,
        "f1": score([s.gold for s in sentences], preds).f1,
        "spans_sha256": hashlib.sha256(json.dumps(decoded).encode()).hexdigest(),
    }


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["run_id"])
    if spec["trace"]:
        install_wrappers(tracer)
    probe = OptimizerProbe(tracer, spec["trace"])
    out: dict = {
        "train": train_phase(spec["train"], tracer, probe),
        "predict": predict_phase(spec["predict"], tracer),
    }
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["measured_s"] = sum(end - start for _name, start, end, parent in tracer.spans if parent is None)
    if spec["trace"]:
        out["layers"] = layer_metrics(tracer)
        out["layers"]["optimizer.iters"] = out["train"]["iters"]
        out["layers"]["optimizer.converged"] = int(out["train"]["status"] == 0)
        out["layers"]["features.num_features"] = out["train"]["num_features"]
        out["layers"]["decode.retained_blocks"] = out["predict"]["retained_blocks"]
        out["span_table"] = {
            name: {k: v for k, v in row.items() if k != "durations"} for name, row in tracer.summary().items()
        }
        tracer.write(spec["spans"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
