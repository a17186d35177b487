#!/usr/bin/env python3
"""spancrf benchmark: training and decoding through the public library path.

    python3 perfbench/run.py --workload {train-dgm,train-semi,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding src/). The
harness generates every corpus from --seed with spancrf.synth and writes
it as a CoNLL file before any timed process starts, so the program under
test receives only files. It then runs repetitions, each in a fresh
interpreter (perfbench/rep.py) that trains, saves, loads and decodes, one
after another in a closed loop with one client, until --seconds have
passed (at least three).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions on the same inputs, checks that both give the same
objective and the same decoded spans, and reports per-layer metrics, the
tracing overhead, and the spans file.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A record with the machine, the
versions, the seed and every metric's median, quartiles and sample count
is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MAX_LEN = 8
L2 = 0.01
MIN_REPS = 3
RUN_LIMIT_S = 170  # every child is killed past this, so a run ends within 180 s

# Sizes keep one 60-second run at four or more repetitions and at least
# 100 decode chunks (ten beyond p90) on a 2-core Xeon. The acceptance corpus
# (500 sentences) takes over 30 s per dgm fit, too long for a repetition.
WORKLOADS = {
    # the paper's model trained to convergence, where the objective loop
    # (emission matvec, forward, backward, marginals, scatter) dominates;
    # then long sentences decoded with the saved model, where string-lookup
    # emission scoring dominates and every sentence misses the lattice memo
    "train-dgm": {
        "mode": "dgm",
        "train": (100, 25.0),
        "max_iter": 200,
        "expect": "converged",
        "test": (400, 60.0),
        "chunk": 10,
        "f1_floor": 90.0,
    },
    # the largest lattice (about 4.4x the dgm spans per token) at a fixed
    # iteration cap: compile (templates, interning, sparse assembly) and
    # memory dominate
    "train-semi": {
        "mode": "semi",
        "train": (60, 25.0),
        "max_iter": 15,
        "expect": "cap",
        "test": (80, 25.0),
        "chunk": 2,
        "f1_floor": 75.0,
    },
}

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "iter_s": "s",
    "sents_per_s": "1/s",
    "chunk_ms_mean": "ms",
    "chunk_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "heldout_f1": "%",
}

PER_LAYER = {
    "lattice.build_s": "s",
    "lattice.calls": "count",
    "lattice.spans_per_token": "spans/token",
    "inference.allowed_mask_s": "s",
    "training.setup_self_s": "s",
    "training.objective_s": "s",
    "training.objective_calls": "count",
    "inference.forward_s": "s",
    "inference.backward_s": "s",
    "training.objective_self_s": "s",
    "optimizer.self_s": "s",
    "optimizer.iters": "count",
    "optimizer.converged": "bool",
    "training.decode_self_s": "s",
    "inference.viterbi_s": "s",
    "training.model_load_s": "s",
    "training.model_save_s": "s",
    "features.num_features": "count",
    "corpus.read_s": "s",
    "corpus.write_s": "s",
    "decode.retained_blocks": "count",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # pin BLAS/OpenMP pools so one process uses one core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def make_inputs(name: str, seed: int, work: Path) -> None:
    """Seeded corpora written as CoNLL files; nothing else reaches the program."""
    from spancrf.corpus import write_conll
    from spancrf.synth import synthesize

    w = WORKLOADS[name]
    # distinct, seed-derived streams for the training and the test corpus
    for k, part in enumerate(("train", "test"), start=1):
        n, mean_len = w[part]
        corpus = synthesize(n, mean_len=mean_len, max_len=MAX_LEN, seed=(seed * 1_000_003 + k) % 2**32)
        write_conll(corpus, None, work / f"{part}.conll")


class Runner:
    """Starts repetitions one at a time and keeps their results."""

    def __init__(self, name: str, seed: int, work: Path, spans_path: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.spans_path = spans_path
        self.count = 0
        self.started = time.monotonic()

    def spec(self, traced: bool) -> dict:
        w = WORKLOADS[self.name]
        self.count += 1
        tag = f"{self.count:03d}"
        model = str(self.work / f"model{tag}.json")
        return {
            "run_id": f"{self.name}/seed{self.seed}/rep{tag}/{'traced' if traced else 'untraced'}",
            "trace": traced,
            "spans": str(self.spans_path),
            "train": {
                "corpus": str(self.work / "train.conll"),
                "mode": w["mode"],
                "max_len": MAX_LEN,
                "l2": L2,
                "max_iter": w["max_iter"],
                "expect": w["expect"],
                "model": model,
            },
            "predict": {
                "corpus": str(self.work / "test.conll"),
                "model": model,
                "chunk": w["chunk"],
                "pred": str(self.work / f"pred{tag}.conll"),
            },
        }

    def run(self, spec: dict) -> dict | None:
        """One repetition in a fresh interpreter; None if it crashed or timed out."""
        tag = spec["run_id"].split("/")[2]
        spec_path = self.work / f"{tag}.spec.json"
        out_path = self.work / f"{tag}.out.json"
        spec_path.write_text(json.dumps(spec))
        limit = RUN_LIMIT_S - (time.monotonic() - self.started)
        cmd = [sys.executable, str(HERE / "rep.py"), str(spec_path), str(out_path)]
        try:
            # the child's output goes to stderr: stdout ends with the result line
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr, timeout=max(limit, 1))
        except subprocess.TimeoutExpired:
            print(f"{spec['run_id']}: timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"{spec['run_id']}: exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(out_path.read_text())

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


class Tally:
    """Operations attempted and failed: each fit and each decode chunk is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, out: dict | None, planned_chunks: int, f1_floor: float, label: str) -> None:
        self.attempted += 1 + planned_chunks
        f1 = out["predict"]["f1"] if out is not None else None
        if out is None or not out["train"]["ok"] or f1 < f1_floor:
            self.failed += 1
            self.problems.append(f"{label}: fit failed its check (f1={f1})")
        bad = planned_chunks if out is None else len(out["predict"]["failed_chunks"])
        if bad:
            self.failed += bad
            self.problems.append(f"{label}: {bad} of {planned_chunks} chunks failed")


def measure(name: str, seconds: int, traced: bool, runner: Runner) -> tuple[Tally, list[dict]]:
    """Run the repetitions of one workload and collect their raw results."""
    w = WORKLOADS[name]
    planned_chunks = -(-w["test"][0] // w["chunk"])
    tally = Tally()
    flags = [False, True] if traced else [False]
    reps: list[dict] = []
    rounds = 0
    while True:
        start = time.monotonic()
        for flag in flags:
            spec = runner.spec(flag)
            out = runner.run(spec)
            if out is not None:
                out["traced"] = flag
                reps.append(out)
            tally.add(out, planned_chunks, w["f1_floor"], spec["run_id"])
        rounds += 1
        took = time.monotonic() - start
        if not reps or runner.elapsed() + took > RUN_LIMIT_S:
            break
        if rounds * len(flags) >= MIN_REPS and runner.elapsed() + took > seconds:
            break
    return tally, reps


def end_to_end(reps: list[dict]) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Samples of each end-to-end metric, one per repetition (one per chunk for
    chunk_ms_*), and the values that are not the median of their samples.

    The CPU of a shared host switches between a fast and a slow speed every
    few seconds, so the samples of one run are bimodal and their median
    jumps from one mode to the other as the share of slow seconds moves.
    The times are therefore whole-run means (total time over total work),
    which move only in proportion to that share; setup_s, peak_rss_mb and
    heldout_f1 are medians.
    """
    trains = [r["train"] for r in reps]
    preds = [r["predict"] for r in reps]
    busy = [p["read_s"] + sum(p["chunk_s"]) + p["write_s"] for p in preds]
    loop = [t["train_s"] - t["setup_s"] - t["save_s"] for t in trains]
    # pooled over every chunk of the run, so at least ten lie beyond p90
    chunks_ms = [1000 * c for p in preds for c in p["chunk_s"]]
    samples = {
        "setup_s": [t["setup_s"] for t in trains],
        "train_s": [t["train_s"] for t in trains],
        "iter_s": [t["iter_s"] for t in trains],
        "sents_per_s": [p["sentences"] / b for p, b in zip(preds, busy)],
        "chunk_ms_mean": chunks_ms,
        "chunk_ms_p90": chunks_ms,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "heldout_f1": [p["f1"] for p in preds],
    }
    values = {
        "train_s": statistics.fmean(samples["train_s"]),
        # optimizer-loop time over every iteration of the run
        "iter_s": sum(loop) / max(sum(t["iters"] for t in trains), 1),
        # work completed per second over the whole run
        "sents_per_s": sum(p["sentences"] for p in preds) / sum(busy),
        "chunk_ms_mean": statistics.fmean(chunks_ms),
        "chunk_ms_p90": percentile(chunks_ms, 90),
    }
    return samples, values


def per_layer(reps: list[dict]) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Samples of each per-layer metric, one per traced repetition."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    samples: dict[str, list[float]] = {}
    for rep in traced:
        for key, value in rep["layers"].items():
            samples.setdefault(key, []).append(value)
    samples["trace.overhead_s"] = [t["measured_s"] - u["measured_s"] for u, t in zip(untraced, traced)]
    return samples, {}


def consistency(reps: list[dict]) -> list[str]:
    """Every repetition of a run gives the same objective and decoded spans, traced or not."""
    problems = []
    objectives = {r["train"]["objective"] for r in reps}
    if len(objectives) > 1:
        problems.append(f"objective differs between repetitions: {sorted(objectives)}")
    digests = {r["predict"]["spans_sha256"] for r in reps}
    if len(digests) > 1:
        problems.append("decoded spans differ between repetitions")
    return problems


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_revision": rev or "unknown",
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    work = HERE / "work" / f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{name}-seed{seed}.jsonl"
    if traced and spans_path.exists():
        spans_path.unlink()
    work.mkdir(parents=True)
    try:
        make_inputs(name, seed, work)
        runner = Runner(name, seed, work, spans_path)
        tally, reps = measure(name, seconds, traced, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = tally.problems + (consistency(reps) if reps else ["no repetition completed"])
    units = PER_LAYER if traced else END_TO_END
    samples: dict[str, list[float]] = {}
    values: dict[str, float] = {}
    if reps:
        samples, values = per_layer(reps) if traced else end_to_end(reps)
    stats = {}
    for key in units:
        if samples.get(key):
            q1, median, q3 = quartiles(samples[key])
            value = values.get(key, median)
            stats[key] = {"value": value, "unit": units[key], "median": median, "q1": q1, "q3": q3, "n": len(samples[key])}
    missing = [key for key in units if key not in stats]
    if missing and reps:
        problems.append(f"metrics not measured: {missing}")
    record = {
        "workload": name,
        "trace": traced,
        "seconds": seconds,
        "environment": environment(seed),
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": problems,
        "metrics": stats,
        "repetitions": reps,
    }
    if traced:
        record["spans_file"] = str(spans_path.relative_to(ROOT)) if spans_path.exists() else None
        record["span_table"] = next((r["span_table"] for r in reversed(reps) if r["traced"]), {})
    out_path = RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json"
    out_path.write_text(json.dumps(record, indent=1))
    record["record_file"] = str(out_path.relative_to(ROOT))
    return record


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"== {record['workload']}  seed {env['seed']}  trace {int(record['trace'])}  {record['seconds']} s")
    print(
        f"   {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, rev {env['git_revision']}, src {env['src_sha256'][:12]}"
    )
    print(f"   {'metric':<28}{'unit':<12}{'value':>12}{'median':>12}{'q1':>12}{'q3':>12}{'n':>6}")
    for key, s in record["metrics"].items():
        print(
            f"   {key:<28}{s['unit']:<12}{s['value']:>12.5g}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}{s['n']:>6}"
        )
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"   {'fail_ratio':<28}{'ratio':<12}{ratio:>12.5g}   ({record['failed']} of {record['attempted']} operations)")
    if record["trace"]:
        print(f"   {'span (last traced repetition)':<32}{'calls':>8}{'total_s':>12}{'self_s':>12}")
        for name, row in record["span_table"].items():
            print(f"   {name:<32}{row['calls']:>8}{row['total_s']:>12.5f}{row['self_s']:>12.5f}")
        print(f"   spans written to {record['spans_file']}")
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem}")
    print(f"   record written to {record['record_file']}")


def summary_line(records: list[dict], prefix: bool) -> dict:
    metrics = {}
    for record in records:
        for key, s in record["metrics"].items():
            name = f"{record['workload']}.{key}" if prefix else key
            metrics[name] = {"value": s["value"], "unit": s["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": max(1, sum(r["attempted"] for r in records)),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spancrf" / "__init__.py").is_file():
        print(f"error: no spancrf sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(record)
        records.append(record)
    print(json.dumps(summary_line(records, prefix=len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
