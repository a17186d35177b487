"""Command-line front end: training, prediction, scoring, lattice stats,
counting-identity verification, and synthetic data generation.

Exit codes: 0 success, 1 broken internal invariant, 2 usage or input error.
CSV outputs go to stdout unless --output is given; logs go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import math
import os
import sys

from . import __version__
from .combinatorics import average_valid_spans, verify_identities
from .corpus import (
    ConllParseError,
    LabelSet,
    SerializationError,
    read_conll,
    read_predictions,
    write_conll,
)
from .evaluation import DEFAULT_SAMPLES, bootstrap_test, score
from .inference import InvariantViolation
from .lattice import MODE_KINDS, Mode, _edges_per_token, _representability, coverage
from .synth import synthesize
from .training import Model, TrainConfig, TrainingError, bench_per_evaluation, cross_validate, decode_corpus, fit

logger = logging.getLogger(__name__)


def _add_common(p: argparse.ArgumentParser, folds: bool = False) -> None:
    p.add_argument("--mode", choices=MODE_KINDS, default="dgm", help="model family (default dgm)")
    p.add_argument("--max-len", type=int, default=8, metavar="L", help="maximum segment length (default 8)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1, help="L2 coefficient (default 0.1)")
    p.add_argument("--no-dep-features", dest="dep_features", action="store_false", help="drop dependency features")
    p.add_argument("--seed", type=int, default=42)
    if folds:
        p.add_argument("--folds", type=int, default=10, help="cross-validation folds (default 10)")


def _config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        l2=args.lam,
        folds=getattr(args, "folds", 10),
        dep_features=args.dep_features,
        seed=args.seed,
    )


def _write_rows(args: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    out = open(args.output, "w", encoding="utf-8", newline="") if args.output else contextlib.nullcontext(sys.stdout)
    with out as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_train(args: argparse.Namespace) -> int:
    sentences = read_conll(args.input)
    mode = Mode(args.mode, args.max_len)
    config = _config(args)
    if args.cv:
        best, means = cross_validate(sentences, config, mode)
        for lam in sorted(means):
            print(f"lambda {lam:g}: mean F1 {means[lam]:.2f}")
        print(f"selected lambda {best:g}")
        config = dataclasses.replace(config, l2=best)
    with open(args.trace, "w", encoding="utf-8") if args.trace else contextlib.nullcontext() as trace:

        def report(record: dict) -> None:
            if "iteration" in record:  # not the compile summary, which is logged
                print(f"iter {record['iteration']}: objective {record['objective']:.6f} ({record['step_s']:.3f}s)")
            if trace:
                trace.write(json.dumps(record) + "\n")

        model = fit(sentences, config, mode, trace=report)
    model.save(args.output)
    print(f"model written to {args.output}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = Model.load(args.model)
    sentences = read_conll(args.input)
    predictions = decode_corpus(model, sentences)
    write_conll(sentences, predictions, args.output)
    return 0


def _print_table(report) -> None:
    print(f"{'type':<12}{'gold':>7}{'pred':>7}{'corr':>7}{'P':>8}{'R':>8}{'F':>8}")
    for etype, ts in report.per_type.items():
        print(
            f"{etype:<12}{ts.gold:>7}{ts.predicted:>7}{ts.correct:>7}"
            f"{ts.precision:>8.2f}{ts.recall:>8.2f}{ts.f1:>8.2f}"
        )
    ov = report.overall
    print(
        f"{'overall':<12}{ov.gold:>7}{ov.predicted:>7}{ov.correct:>7}"
        f"{ov.precision:>8.2f}{ov.recall:>8.2f}{ov.f1:>8.2f}"
    )


def cmd_evaluate(args: argparse.Namespace) -> int:
    gold = read_conll(args.gold)
    predictions = read_predictions(args.predictions)
    report = score([s.gold for s in gold], predictions)
    _print_table(report)
    if args.output:
        rows = [
            [etype, ts.gold, ts.predicted, ts.correct, f"{ts.precision:.4f}", f"{ts.recall:.4f}", f"{ts.f1:.4f}"]
            for etype, ts in {**report.per_type, "overall": report.overall}.items()
        ]
        _write_rows(args, ["type", "gold", "predicted", "correct", "precision", "recall", "f1"], rows)
    return 0


def cmd_significance(args: argparse.Namespace) -> int:
    gold = read_conll(args.gold)
    pred_a = read_predictions(args.pred_a)
    pred_b = read_predictions(args.pred_b)
    result = bootstrap_test([s.gold for s in gold], pred_a, pred_b, samples=args.samples, seed=args.seed)
    print(f"F1(a) = {result.f1_a:.2f}")
    print(f"F1(b) = {result.f1_b:.2f}")
    if result.tie:
        print("exact tie: p = 1.0000")
    else:
        print(f"better: {result.better}")
        print(f"p = {result.p_value:.4f} ({args.samples} resamples)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    sentences = read_conll(args.input)
    mode = Mode(args.mode, args.max_len)
    num_labels = len(LabelSet.from_corpus(sentences))
    records = coverage(sentences, mode)
    mean = _edges_per_token(records, num_labels)  # raises on an empty corpus
    pairs = num_labels * num_labels
    rows = [[i, n, spans, spans * pairs, f"{spans * pairs / n:.4f}"] for i, (n, spans, _, _) in enumerate(records, 1)]
    rows.append(["mean", "", "", "", f"{mean:.4f}"])
    _write_rows(args, ["sentence_id", "n", "spans", "edges", "edges_per_token"], rows)
    total, representable, pct = _representability(records)
    logger.info("gold entities representable under %s: %d/%d (%.1f%%)", args.mode, representable, total, pct)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_identities(args.max_n)
    for name, passed in report.rows:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    for disc in report.discrepancies:
        print(f"DISCREPANCY  {disc}")
    print(f"{'ok' if report.ok else 'FAILED'}: {len(report.rows)} checks, {len(report.discrepancies)} discrepancies")
    return 0 if report.ok else 1


def cmd_edges_curve(args: argparse.Namespace) -> int:
    rows = []
    for n in range(2, args.max_n + 1):
        avg = float(average_valid_spans(n))
        rows.append([n, f"{avg:.6f}", f"{math.e * n:.6f}"])
    _write_rows(args, ["n", "average_valid_spans", "e_times_n"], rows)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    sentences = read_conll(args.input)
    config = _config(args)
    rows = []
    for kind in MODE_KINDS:
        mean, std = bench_per_evaluation(sentences, Mode(kind, args.max_len), config, iters=args.iters, warmup=1)
        logger.info("%s: %.4fs +- %.4fs per objective evaluation", kind, mean, std)
        rows.append([kind, f"{mean:.6f}", f"{std:.6f}", args.iters])
    _write_rows(args, ["mode", "mean_seconds", "std_seconds", "evaluations"], rows)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    sentences = synthesize(
        args.sentences,
        mean_len=args.mean_len,
        num_types=args.types,
        vocab=args.vocab,
        entity_rate=args.entity_rate,
        leak_rate=args.leak_rate,
        max_len=args.max_len,
        seed=args.seed,
    )
    write_conll(sentences, None, args.output)
    print(f"{len(sentences)} sentences written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spancrf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="train a model on a CoNLL file")
    p.add_argument("input", help="training corpus")
    p.add_argument("output", help="model JSON path")
    p.add_argument("--cv", action="store_true", help="pick lambda by cross-validation first")
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="write JSON lines for the final fit: first {\"compile\": {...}}, the compile summary "
        "also logged to stderr, then one per L-BFGS iteration (iteration, objective, grad_inf_norm, "
        "step_s, fevals)",
    )
    _add_common(p, folds=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="append a prediction column")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="span P/R/F of a prediction file")
    p.add_argument("gold")
    p.add_argument("predictions")
    p.add_argument("--output", help="also write scores as CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("significance", help="bootstrap test between two prediction files")
    p.add_argument("gold")
    p.add_argument("pred_a")
    p.add_argument("pred_b")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("stats", help="per-sentence lattice edge counts as CSV")
    p.add_argument("input")
    p.add_argument("--mode", choices=MODE_KINDS, default="dgm")
    p.add_argument("--max-len", type=int, default=8, metavar="L")
    p.add_argument("--output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="run the counting-identity suite")
    p.add_argument("--max-n", type=int, default=7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("edges-curve", help="average valid spans per tree size as CSV")
    p.add_argument("--max-n", type=int, default=30)
    p.add_argument("--output")
    p.set_defaults(func=cmd_edges_curve)

    p = sub.add_parser("bench", help="time of one objective evaluation in each of the four modes")
    p.add_argument("input")
    p.add_argument("--iters", type=int, default=5, help="timed objective evaluations per mode (default 5)")
    p.add_argument("--output")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate a synthetic annotated corpus")
    p.add_argument("output")
    p.add_argument("--sentences", type=int, default=100)
    p.add_argument("--mean-len", type=float, default=25.0)
    p.add_argument("--types", type=int, default=4)
    p.add_argument("--vocab", type=int, default=200, help="0 means globally unique surfaces")
    p.add_argument("--entity-rate", type=float, default=0.15)
    p.add_argument("--leak-rate", type=float, default=0.0)
    p.add_argument("--max-len", type=int, default=8, metavar="L")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader chose to stop; silence stdout so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ConllParseError, SerializationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, TrainingError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
