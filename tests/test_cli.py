"""End-to-end command line flows through main(argv)."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spancrf
import spancrf.lattice
from spancrf import LabelSet, Model, read_conll, read_predictions, representability_stats, synthesize, write_conll
from spancrf.cli import main
from spancrf.lattice import Mode, average_edges_per_token, build_lattice, edge_count


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.conll"
    corpus = synthesize(8, mean_len=5.0, num_types=2, vocab=0, entity_rate=0.5, seed=14)
    write_conll(corpus, None, path)
    return path


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_synth_writes_parseable_corpus(tmp_path, capsys):
    path = tmp_path / "synth.conll"
    rc = main(["synth", str(path), "--sentences", "8", "--mean-len", "5", "--seed", "14"])
    assert rc == 0
    assert "8 sentences written" in capsys.readouterr().out
    assert len(read_conll(path)) == 8


def test_train_predict_evaluate_round_trip(tmp_path, corpus_path, capsys):
    model = tmp_path / "model.json"
    rc = main(
        ["train", str(corpus_path), str(model), "--mode", "semi", "--lambda", "0", "--max-len", "8"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "iter 1: objective" in out
    assert f"model written to {model}" in out

    pred = tmp_path / "pred.conll"
    assert main(["predict", str(model), str(corpus_path), str(pred)]) == 0
    capsys.readouterr()

    scores = tmp_path / "scores.csv"
    assert main(["evaluate", str(corpus_path), str(pred), "--output", str(scores)]) == 0
    table = capsys.readouterr().out
    overall = next(line for line in table.splitlines() if line.startswith("overall"))
    assert "100.00" in overall

    rows = _csv_rows(scores.read_text())
    assert rows[0] == ["type", "gold", "predicted", "correct", "precision", "recall", "f1"]
    by_type = {r[0]: r for r in rows[1:]}
    assert by_type["overall"][6] == "100.0000"


def test_train_trace_writes_one_record_per_iteration(tmp_path, corpus_path, capsys, caplog):
    model = tmp_path / "model.json"
    trace = tmp_path / "run.jsonl"
    with caplog.at_level("INFO"):
        assert main(["train", str(corpus_path), str(model), "--mode", "dgm", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.splitlines()
    printed = [line for line in out if line.startswith("iter ")]
    assert out == printed + [f"model written to {model}"]
    summary, *records = [json.loads(line) for line in trace.read_text().splitlines()]
    # the compile summary comes first, under a key no iteration record has
    assert list(summary) == ["compile"]
    compiled = summary["compile"]
    corpus = read_conll(corpus_path)
    assert compiled["sentences"] == len(corpus) and compiled["tokens"] == sum(s.n for s in corpus)
    assert compiled["gold_entities"] == sum(len(s.gold) for s in corpus)
    assert 0 <= compiled["split_entities"] <= compiled["gold_entities"]
    assert 1 <= compiled["spans_per_token"] and compiled["emission_entries_per_span"] > 3
    saved = Model.load(model)
    assert compiled["templates"] == len(saved.index) and compiled["weights"] == saved.weights.size
    assert compiled["compile_s"] > 0
    # and is the one line fit logs, with the same fields
    logged = [r.getMessage() for r in caplog.records if r.name == "spancrf.training"]
    logged = [message for message in logged if message.startswith("compiled ")]
    assert len(logged) == 1
    assert f"{compiled['sentences']} sentences, {compiled['tokens']} tokens:" in logged[0]
    assert f"{compiled['templates']} templates, {compiled['weights']} weights" in logged[0]
    assert len(records) == len(printed) > 1
    for k, (record, line) in enumerate(zip(records, printed), start=1):
        assert set(record) == {"iteration", "objective", "grad_inf_norm", "step_s", "fevals"}
        assert record["iteration"] == k
        assert line.startswith(f"iter {k}: objective {record['objective']:.6f} ")
        assert math.isfinite(record["grad_inf_norm"]) and record["grad_inf_norm"] >= 0
        assert record["step_s"] >= 0 and record["fevals"] >= 1
    # the first step also pays for the evaluation at the starting point
    assert records[0]["fevals"] >= 2
    assert records[-1]["objective"] < records[0]["objective"]


def test_train_writes_no_trace_by_default(tmp_path, corpus_path):
    assert main(["train", str(corpus_path), str(tmp_path / "model.json"), "--mode", "dgm"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.conll", "model.json"]


def test_train_records_dep_feature_flag(tmp_path, corpus_path):
    model = tmp_path / "model.json"
    rc = main(
        [
            "train",
            str(corpus_path),
            str(model),
            "--mode",
            "dgm",
            "--no-dep-features",
            "--lambda",
            "0.01",
        ]
    )
    assert rc == 0
    doc = json.loads(model.read_text())
    assert doc["dep_features"] is False
    assert doc["mode"] == "dgm"
    assert doc["lambda"] == 0.01
    assert not any(f.startswith(("dw:", "dwl:", "dp:", "dpl:")) for f in doc["templates"])


def test_train_cv_prints_grid_and_selection(tmp_path, corpus_path, capsys):
    model = tmp_path / "model.json"
    rc = main(
        ["train", str(corpus_path), str(model), "--mode", "linear", "--cv", "--folds", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("lambda ") >= 5  # one line per grid value
    assert "selected lambda" in out
    assert model.exists()


def test_significance_tie_and_win(tmp_path, corpus_path, capsys):
    sentences = read_conll(corpus_path)
    perfect = tmp_path / "perfect.conll"
    empty = tmp_path / "empty.conll"
    write_conll(sentences, [list(s.gold) for s in sentences], perfect)
    write_conll(sentences, [[] for _ in sentences], empty)

    assert main(["significance", str(corpus_path), str(perfect), str(perfect)]) == 0
    assert "exact tie" in capsys.readouterr().out

    assert main(
        ["significance", str(corpus_path), str(perfect), str(empty), "--samples", "200"]
    ) == 0
    out = capsys.readouterr().out
    assert "better: a" in out
    assert "p = 0.0000 (200 resamples)" in out


def test_stats_csv_and_coverage_log(corpus_path, capsys, caplog):
    with caplog.at_level("INFO"):
        assert main(["stats", str(corpus_path), "--mode", "dgm-s"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[0] == ["sentence_id", "n", "spans", "edges", "edges_per_token"]
    assert len(rows) == 10  # 8 sentences + header + mean row
    assert rows[-1][0] == "mean"
    body = rows[1:-1]
    ratios = [float(r[4]) for r in body]
    assert float(rows[-1][4]) == pytest.approx(sum(ratios) / len(ratios), abs=5e-4)
    for r in body:
        assert int(r[3]) == int(r[2]) * 9  # spans * |T|^2, three labels
    assert "representable under dgm-s" in caplog.text


@pytest.fixture(scope="module")
def large_corpus(tmp_path_factory):
    corpus = synthesize(3000, seed=5)
    path = tmp_path_factory.mktemp("large") / "corpus.conll"
    write_conll(corpus, None, path)
    return corpus, path


@pytest.mark.parametrize("kind", ["dgm", "linear"])
def test_stats_builds_each_lattice_once(kind, large_corpus, capsys, caplog, monkeypatch):
    corpus, path = large_corpus
    builds = []

    def counting(sentence, mode):
        builds.append(sentence)
        return build_lattice(sentence, mode)

    monkeypatch.setattr(spancrf.lattice, "build_lattice", counting)
    with caplog.at_level("INFO"):
        assert main(["stats", str(path), "--mode", kind]) == 0
    assert len(builds) == len(corpus)
    monkeypatch.undo()
    # the same bytes as the per-sentence rows plus the library's corpus statistics
    mode, num_labels = Mode(kind, 8), len(LabelSet.from_corpus(corpus))
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["sentence_id", "n", "spans", "edges", "edges_per_token"])
    for i, sentence in enumerate(corpus, start=1):
        lattice = build_lattice(sentence, mode)
        edges = edge_count(lattice, num_labels)
        writer.writerow([i, sentence.n, len(lattice), edges, f"{edges / sentence.n:.4f}"])
    writer.writerow(["mean", "", "", "", f"{average_edges_per_token(corpus, mode, num_labels):.4f}"])
    assert capsys.readouterr().out == want.getvalue()
    total, representable, pct = representability_stats(corpus, mode)
    assert caplog.messages == [f"gold entities representable under {kind}: {representable}/{total} ({pct:.1f}%)"]


def test_verify_prints_checks(capsys):
    assert main(["verify", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL " not in out
    assert out.strip().endswith("discrepancies")
    assert "ok:" in out


def test_edges_curve_stays_under_linear_bound(capsys):
    assert main(["edges-curve", "--max-n", "12"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[0] == ["n", "average_valid_spans", "e_times_n"]
    assert [r[0] for r in rows[1:]] == [str(n) for n in range(2, 13)]
    for r in rows[1:]:
        assert float(r[1]) < float(r[2])
        assert float(r[2]) == pytest.approx(math.e * int(r[0]), abs=1e-5)


def test_bench_times_all_modes(corpus_path, capsys):
    assert main(["bench", str(corpus_path), "--iters", "1", "--max-len", "3"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[0] == ["mode", "mean_seconds", "std_seconds", "evaluations"]
    assert [r[0] for r in rows[1:]] == ["linear", "semi", "dgm-s", "dgm"]
    assert all(float(r[1]) > 0 for r in rows[1:])


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["train", str(tmp_path / "nope.conll"), str(tmp_path / "model.json")])
    assert rc == 2
    assert "nope.conll" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
def test_bad_lambda_exits_2(tmp_path, corpus_path, capsys, lam):
    model = tmp_path / "model.json"
    assert main(["train", str(corpus_path), str(model), "--lambda", lam]) == 2
    assert "regularization" in capsys.readouterr().err
    assert not model.exists()


def test_malformed_corpus_exits_2_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.conll"
    bad.write_text("1\tonly\tthree\n")
    assert main(["stats", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_stats_into_a_closed_pipe_exits_0_quietly(tmp_path):
    # about 250 KB of CSV: more than the pipe and stdout buffers hold, so the
    # writer is still writing when the reader goes away
    big = tmp_path / "big.conll"
    big.write_text("1\tw\tNN\t0\troot\tO\n\n" * 15000)
    src = str(Path(spancrf.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "spancrf.cli", "stats", str(big)]
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"sentence_id,n,spans,edges,edges_per_token\r\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    # no error, and no coverage log either: stats stopped at the closed pipe
    assert err == b""


def test_model_version_mismatch_exits_2(tmp_path, corpus_path, capsys):
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"version": 99}))
    rc = main(["predict", str(stale), str(corpus_path), str(tmp_path / "out.conll")])
    assert rc == 2
    assert "version" in capsys.readouterr().err


def test_predict_on_empty_corpus_writes_empty_file(tmp_path, corpus_path):
    model = tmp_path / "model.json"
    assert main(["train", str(corpus_path), str(model), "--mode", "linear", "--lambda", "1"]) == 0
    empty_in = tmp_path / "empty.conll"
    empty_in.write_text("")
    out = tmp_path / "out.conll"
    assert main(["predict", str(model), str(empty_in), str(out)]) == 0
    assert out.read_text() == ""
    assert read_predictions(out) == []


def test_unknown_mode_is_an_argparse_error(corpus_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", str(corpus_path), str(tmp_path / "m.json"), "--mode", "hmm"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
