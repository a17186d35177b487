"""Objective, gradient, optimizer behavior, and model persistence."""

from __future__ import annotations

import base64
import json
import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from spancrf import (
    DependencyTree,
    EntitySpan,
    Model,
    Sentence,
    SerializationError,
    Token,
    TrainConfig,
    TrainingError,
    bench_per_evaluation,
    build_lattice,
    cross_validate,
    decode_corpus,
    fit,
    objective_and_gradient,
    project_gold,
    representability_stats,
    spans_to_iob,
    synthesize,
)
from spancrf import training
from spancrf.inference import IOB_SCHEME, label_scheme, viterbi
from spancrf.lattice import MODE_KINDS, Mode

from oracles import (
    block_lattices,
    brute_log_partition,
    brute_marginals,
    dense_mask,
    lbfgsb_fit,
    lbfgsb_message,
    path_score,
    random_sentence,
    reference_rows,
    reference_scores,
    segmentation_entities,
)


def one_word_corpus():
    sent = Sentence(
        (Token("ab", "NN"),),
        DependencyTree((0,), ("root",)),
        (EntitySpan(1, 1, "A"),),
    )
    return [sent]


def quick(**kw):
    kw.setdefault("folds", 2)
    return TrainConfig(**kw)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(l2=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(lambda_grid=(0.1, -1.0))
    with pytest.raises(ValueError):
        TrainConfig(folds=1)
    with pytest.raises(ValueError):
        TrainConfig(max_iter=0)
    with pytest.raises(ValueError):
        TrainConfig(workers=0)
    with pytest.raises(ValueError):
        TrainConfig(workers=2)
    with pytest.raises(ValueError):
        TrainConfig(ftol=0.0)
    # counts must be integers; bool is an int subclass but not a count
    for field, bad in (("folds", 2.5), ("folds", True), ("max_iter", 1.5), ("max_iter", True), ("max_iter", 10.0)):
        with pytest.raises(TypeError, match=field):
            TrainConfig(**{field: bad})
    # NaN fails every comparison, so each is checked as a value of its own
    for bad in (math.nan, math.inf):
        for field in ("l2", "ftol", "gtol"):
            with pytest.raises(ValueError):
                TrainConfig(**{field: bad})
        with pytest.raises(ValueError):
            TrainConfig(lambda_grid=(0.1, bad))


def test_model_validation():
    model = fit(one_word_corpus(), quick(l2=0.0, max_iter=1), Mode("semi", 2))
    with pytest.raises(ValueError):
        Model(model.mode, model.labels, model.index, model.weights[:-1], 0.0)
    with pytest.raises(ValueError):
        Model(model.mode, model.labels, model.index, model.weights, -1.0)
    with pytest.raises(ValueError, match="repeated"):
        Model(model.mode, model.labels, model.index[:-1] + model.index[:1], model.weights, 0.0)
    assert model.max_len == 2


def test_project_gold_identity_when_representable(womack):
    lat = build_lattice(womack, Mode("dgm", 8))
    seg, splits = project_gold(womack, lat)
    assert splits == 0
    entities = [(u, v, label) for (u, v), label in seg if label != "O"]
    assert entities == [(1, 3, "PER"), (5, 8, "MISC")]
    covered = [u for (u, v), _ in seg for u in range(u, v + 1)]
    assert covered == list(range(1, 10))


def test_project_gold_splits_unrepresentable(womack):
    lat = build_lattice(womack, Mode("semi", 2))
    seg, splits = project_gold(womack, lat)
    assert splits == 2
    labels = seg.labels()
    assert labels == ("PER", "PER", "PER", "O", "MISC", "MISC", "MISC", "MISC", "O")
    assert all(v == u for (u, v), _ in seg)


def test_project_gold_split_count_matches_coverage_stats():
    corpus = synthesize(40, mean_len=12.0, leak_rate=0.6, seed=13)
    mode = Mode("dgm-s", 8)
    total, representable, _ = representability_stats(corpus, mode)
    splits = sum(project_gold(s, build_lattice(s, mode))[1] for s in corpus)
    assert splits == total - representable
    assert splits > 0


def test_strict_objective_names_sentence_and_span(womack, shlomo):
    corpus = [shlomo, womack]
    model = fit(corpus, quick(max_iter=1), Mode("dgm-s", 8))
    with pytest.raises(ValueError, match=r"sentence 2: gold span \(5,8\)"):
        objective_and_gradient(model, corpus)


def test_value_and_gradient_at_zero_weights():
    corpus = one_word_corpus()
    model = fit(corpus, quick(l2=1.0, max_iter=1), Mode("semi", 2))
    model.weights = np.zeros(model.weights.shape)
    value, grad = objective_and_gradient(model, corpus)
    assert grad.shape == model.weights.shape
    # two labelings, uniform: log Z = log 2; zero weights kill both the
    # regularizer and the gold linear term
    assert value == pytest.approx(math.log(2), abs=1e-12)
    # every template row and the begin-transition row fire in exactly one
    # labeling per label: expectation 0.5, gold count 1 on the entity
    # labeling, 0 on the other; transitions out of O or A never fire
    T = len(model.index)
    np.testing.assert_allclose(np.abs(grad[:T]), 0.5, atol=1e-12)
    np.testing.assert_allclose(np.abs(grad[T + 2]), 0.5, atol=1e-12)
    assert not grad[T : T + 2].any()
    assert (grad > 0).sum() == (grad < 0).sum()


def test_finite_difference_gradient():
    rng = np.random.default_rng(31)
    corpus = [random_sentence(rng, n=4) for _ in range(3)]
    model = fit(corpus, quick(l2=0.05, max_iter=1), Mode("dgm", 3))
    w = rng.normal(scale=0.2, size=model.weights.shape)
    model.weights = w
    _, grad = objective_and_gradient(model, corpus)
    h = 1e-6
    for k in rng.choice(w.size, size=min(8, w.size), replace=False):
        model.weights = w.copy()
        model.weights.flat[k] += h
        up, _ = objective_and_gradient(model, corpus)
        model.weights = w.copy()
        model.weights.flat[k] -= h
        down, _ = objective_and_gradient(model, corpus)
        fd = (up - down) / (2 * h)
        assert grad.flat[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_objective_is_convex_along_segments():
    rng = np.random.default_rng(32)
    corpus = [random_sentence(rng, n=4) for _ in range(3)]
    model = fit(corpus, quick(l2=0.0, max_iter=1), Mode("semi", 3))
    for _ in range(5):
        w1 = rng.normal(scale=0.5, size=model.weights.shape)
        w2 = rng.normal(scale=0.5, size=model.weights.shape)
        values = []
        for w in (w1, w2, (w1 + w2) / 2):
            model.weights = w
            values.append(objective_and_gradient(model, corpus)[0])
        assert values[2] <= (values[0] + values[1]) / 2 + 1e-9


def test_gradient_vanishes_at_unregularized_optimum():
    # same surface forms with conflicting gold keep the optimum finite
    tok = lambda: (Token("x", "NN"), Token("y", "NN"))
    tree = DependencyTree((0, 1), ("root", "dep"))
    corpus = [
        Sentence(tok(), tree, (EntitySpan(1, 1, "A"),)),
        Sentence(tok(), tree, (EntitySpan(1, 1, "A"),)),
        Sentence(tok(), tree, ()),
    ]
    config = quick(l2=0.0, max_iter=500, ftol=1e-14, gtol=1e-9)
    model = fit(corpus, config, Mode("semi", 2))
    _, grad = objective_and_gradient(model, corpus)
    # stationarity = model expectations match empirical feature counts
    assert np.abs(grad).max() <= 1e-4


def test_fit_overfits_a_tiny_separable_corpus():
    corpus = synthesize(8, mean_len=6.0, num_types=2, vocab=0, entity_rate=0.4, seed=14)
    for kind in ("linear", "dgm"):
        model = fit(corpus, quick(l2=0.0), Mode(kind, 8))
        preds = decode_corpus(model, corpus)
        assert [tuple(p) for p in preds] == [s.gold for s in corpus]


def test_objective_is_additive_over_sentences():
    corpus = synthesize(70, mean_len=5.0, num_types=2, vocab=40, seed=16)
    model = fit(corpus, quick(l2=0.0, max_iter=2), Mode("linear"))
    full_v, full_g = objective_and_gradient(model, corpus)
    left_v, left_g = objective_and_gradient(model, corpus[:35])
    right_v, right_g = objective_and_gradient(model, corpus[35:])
    assert full_v == pytest.approx(left_v + right_v, rel=1e-12)
    np.testing.assert_allclose(full_g, left_g + right_g, rtol=1e-10, atol=1e-12)


def test_save_load_round_trip(tmp_path):
    corpus = synthesize(10, mean_len=6.0, num_types=2, vocab=30, seed=17)
    model = fit(corpus, quick(l2=0.01, max_iter=15, dep_features=False), Mode("dgm", 6))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = Model.load(path)
    assert loaded.mode == model.mode
    assert loaded.labels == model.labels
    assert loaded.lam == model.lam
    assert loaded.dep_features is False
    assert loaded.index == model.index
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.converged == model.converged
    assert decode_corpus(loaded, corpus) == decode_corpus(model, corpus)

    doc = json.loads(path.read_text())
    assert doc["version"] == 3
    assert doc["mode"] == "dgm" and doc["L"] == 6
    assert doc["lambda"] == 0.01 and doc["dep_features"] is False
    # W's bytes as little-endian float64, row-major
    raw = base64.b64decode(doc["weights"], validate=True)
    assert len(raw) == 8 * (len(doc["templates"]) + len(doc["labels"]) + 1) * len(doc["labels"])
    assert raw == model.weights.astype("<f8").tobytes()
    assert loaded.weights.flags.writeable and loaded.weights.dtype == np.float64


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_save_load_is_bitwise_at_the_edges_of_float64(tmp_path, kind):
    corpus = synthesize(12, mean_len=6.0, num_types=2, vocab=30, seed=23)
    held = synthesize(40, mean_len=7.0, num_types=2, vocab=30, seed=24)
    model = fit(corpus, quick(l2=0.01, max_iter=5), Mode(kind, 4))
    fitted = model.weights.copy()
    path = tmp_path / "model.json"
    huge = 1.7976931348623157e308  # the largest finite float64
    edges = [-0.0, 5e-324, huge, -huge, np.nextafter(1.0, 2.0)]
    model.weights.flat[: len(edges)] = edges
    model.save(path)
    loaded = Model.load(path)
    assert loaded.weights.tobytes() == model.weights.tobytes()
    assert math.copysign(1.0, loaded.weights.flat[0]) == -1.0
    # scores built from +-huge overflow, so the decoded model holds the other edges only
    model.weights = fitted
    model.weights.flat[[0, 1, 4]] = [-0.0, 5e-324, np.nextafter(1.0, 2.0)]
    model.save(path)
    loaded = Model.load(path)
    assert loaded.weights.tobytes() == model.weights.tobytes()
    want = decode_corpus(model, held)
    assert any(want) and decode_corpus(loaded, held) == want


def test_optimizer_status_survives_save_and_load(tmp_path):
    corpus = synthesize(10, mean_len=6.0, num_types=2, vocab=30, seed=22)
    model = fit(corpus, quick(max_iter=2), Mode("linear"))
    assert model.converged is False
    assert "ITERATIONS REACHED LIMIT" in model.optimizer_message.upper()
    path = tmp_path / "model.json"
    model.save(path)
    loaded = Model.load(path)
    assert loaded.converged is False
    assert loaded.optimizer_message == model.optimizer_message
    converged = fit(one_word_corpus(), quick(l2=1.0), Mode("semi", 2))
    assert converged.converged is True and converged.optimizer_message


def test_load_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 4}))
    with pytest.raises(SerializationError, match="version"):
        Model.load(path)
    path.write_text(json.dumps({"version": 3, "mode": "dgm"}))
    with pytest.raises(SerializationError, match="malformed"):
        Model.load(path)
    path.write_text(json.dumps({**_GOOD_MODEL, "weights": _weights([[0.0, 1.0]])}))
    with pytest.raises(SerializationError, match="weights"):
        Model.load(path)


def test_load_rejects_version_1_models(tmp_path):
    # a version-1 file: one weight per label-conjoined feature string
    v1 = {
        "version": 1,
        "mode": "dgm",
        "L": 8,
        "lambda": 0.1,
        "dep_features": True,
        "labels": ["O", "A"],
        "features": ["w:a|O", "w:a|A", "t:<BOS>+O", "t:O+A"],
        "weights": [0.5, -0.5, 0.25, 1.0],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(v1))
    with pytest.raises(SerializationError, match="unsupported model version 1"):
        Model.load(path)


def test_load_rejects_version_2_models(tmp_path):
    # a version-2 file: W as rows of JSON numbers
    v2 = {**_GOOD_MODEL, "version": 2, "weights": _GOOD_W.tolist()}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(v2))
    with pytest.raises(SerializationError, match="unsupported model version 2"):
        Model.load(path)


def _weights(rows) -> str:
    """The weights field of a version-3 file: the bytes of W as little-endian float64, in base64."""
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


# one template and two labels: W has 1 + 2 + 1 rows of 2
_GOOD_W = np.array([[0.5, -0.5], [0.0, 1.0], [0.0, 0.25], [0.25, 0.0]])
_GOOD_MODEL = {
    "version": 3,
    "mode": "dgm",
    "L": 8,
    "lambda": 0.1,
    "dep_features": True,
    "converged": True,
    "optimizer_message": "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL",
    "labels": ["O", "A"],
    "templates": ["w:a"],
    "weights": _weights(_GOOD_W),
}
_GOOD_BYTES = base64.b64decode(_GOOD_MODEL["weights"])


@pytest.mark.parametrize(
    ("text", "match"),
    [
        ("[1, 2]", "JSON object"),
        ('{"version": 1, "mode": ', "not JSON"),
        (json.dumps({**_GOOD_MODEL, "templates": ["w:a", "w:a"]}), "repeated"),
        (json.dumps({**_GOOD_MODEL, "weights": _weights(np.vstack([[np.nan, 0.0], _GOOD_W[1:]]))}), "finite"),
        (json.dumps({**_GOOD_MODEL, "weights": _weights(np.vstack([[np.inf, 0.0], _GOOD_W[1:]]))}), "finite"),
        (json.dumps({**_GOOD_MODEL, "weights": _weights(np.vstack([[-np.inf, 0.0], _GOOD_W[1:]]))}), "finite"),
        (json.dumps({**_GOOD_MODEL, "weights": base64.b64encode(_GOOD_BYTES[:-1]).decode()}), "63 bytes"),
        (json.dumps({**_GOOD_MODEL, "weights": base64.b64encode(_GOOD_BYTES + b"\0").decode()}), "65 bytes"),
        (json.dumps({**_GOOD_MODEL, "labels": ["A", "O"]}), "labels"),
        (json.dumps({**_GOOD_MODEL, "mode": "linear"}), "labels"),
        (json.dumps({**_GOOD_MODEL, "converged": 1}), "converged"),
        (json.dumps({**_GOOD_MODEL, "optimizer_message": ["stop"]}), "optimizer_message"),
        (json.dumps({**_GOOD_MODEL, "L": 2.5}), "max_len"),
        (json.dumps({**_GOOD_MODEL, "L": True}), "max_len"),
        (json.dumps({**_GOOD_MODEL, "lambda": float("nan")}), "lambda"),
        (json.dumps({**_GOOD_MODEL, "lambda": "0.1"}), "lambda"),
        (json.dumps({**_GOOD_MODEL, "lambda": True}), "lambda"),
        (json.dumps({**_GOOD_MODEL, "lambda": 10**400}), "malformed"),
        (json.dumps({**_GOOD_MODEL, "weights": _GOOD_MODEL["weights"][:-4] + "!" + _GOOD_MODEL["weights"][-3:]}), "Only base64 data"),
        (json.dumps({**_GOOD_MODEL, "weights": _GOOD_MODEL["weights"][:-1]}), "padding"),
        (json.dumps({**_GOOD_MODEL, "weights": "é" + _GOOD_MODEL["weights"][1:]}), "ASCII"),
        (json.dumps({**_GOOD_MODEL, "weights": _GOOD_W.tolist()}), "base64 string"),
        (json.dumps({**_GOOD_MODEL, "weights": None}), "base64 string"),
        (json.dumps({**_GOOD_MODEL, "dep_features": "no"}), "dep_features"),
        (json.dumps({**_GOOD_MODEL, "templates": "abc", "weights": _weights([[0.0, 0.0]] * 6)}), "JSON arrays"),
        (json.dumps({**_GOOD_MODEL, "templates": {"x": 1, "y": 2}, "weights": _weights([[0.0, 0.0]] * 5)}), "JSON arrays"),
        (json.dumps({**_GOOD_MODEL, "labels": {"O": 0, "T1": 0}}), "JSON arrays"),
    ],
    ids=[
        "top-level-list",
        "invalid-json",
        "repeated-feature",
        "nan-weight",
        "inf-weight",
        "minus-inf-weight",
        "weights-one-byte-short",
        "weights-one-byte-long",
        "label-0-not-O",
        "linear-segment-labels",
        "converged-not-bool",
        "message-not-string",
        "fractional-max-len",
        "boolean-max-len",
        "nan-lambda",
        "string-lambda",
        "boolean-lambda",
        "huge-int-lambda",
        "weights-invalid-base64-character",
        "weights-bad-base64-padding",
        "weights-non-ascii",
        "weights-as-rows",
        "null-weights",
        "dep-features-not-bool",
        "string-templates",
        "object-templates",
        "object-labels",
    ],
)
def test_load_rejects_malformed_models(tmp_path, text, match):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_GOOD_MODEL))
    assert Model.load(path).labels == ("O", "A")
    path.write_text(text)
    with pytest.raises(SerializationError, match=match):
        Model.load(path)


def test_fit_warns_when_the_optimizer_stops_early(caplog):
    corpus = synthesize(10, mean_len=6.0, num_types=2, vocab=30, seed=22)
    with caplog.at_level(logging.WARNING, logger="spancrf.training"):
        fit(corpus, quick(max_iter=2), Mode("linear"))
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "did not converge after 2 iterations" in warnings[0]
    assert "ITERATIONS REACHED LIMIT" in warnings[0].upper()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="spancrf.training"):
        fit(one_word_corpus(), quick(l2=1.0), Mode("semi", 2))
    assert not [r for r in caplog.records if r.levelno == logging.WARNING]


def fit_with_result(corpus, config, mode):
    """fit's model and the OptimizeResult of the optimizer run it made."""
    results = []
    original = scipy.optimize.minimize

    def minimize(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    with mock.patch.object(scipy.optimize, "minimize", minimize):
        model = fit(corpus, config, mode)
    (result,) = results
    return model, result


@pytest.mark.parametrize("case", ["converged", "capped", "capped-where-it-converges", "converged-at-zero"])
@pytest.mark.parametrize("kind", MODE_KINDS)
def test_optimizer_takes_lbfgsb_steps(kind, case):
    mode = Mode(kind, 4)
    corpus = synthesize(25, mean_len=6.0, num_types=2, vocab=40, entity_rate=0.4, seed=60 + MODE_KINDS.index(kind))
    held = synthesize(40, mean_len=7.0, num_types=2, vocab=40, entity_rate=0.4, seed=70)
    _, compiled = training._prepare(corpus, mode, True)
    config = quick(l2=0.01)
    if case == "capped":
        config = quick(l2=0.01, max_iter=3)
    elif case == "capped-where-it-converges":
        converged = lbfgsb_fit(compiled, config)
        assert converged.status == 0 and 3 < converged.nit < config.max_iter
        config = quick(l2=0.01, max_iter=converged.nit)
    elif case == "converged-at-zero":
        grad = training.Objective(compiled, 0.01)(np.zeros(compiled.num_weights))[1]
        assert 0 < np.abs(grad).max() < 100.0
        config = quick(l2=0.01, gtol=100.0)
    want = lbfgsb_fit(compiled, config)
    model, got = fit_with_result(corpus, config, mode)
    assert (got.nit, got.nfev, got.status, got.message) == (want.nit, want.nfev, want.status, want.message)
    assert got.status == (0 if case.startswith("converged") else 1)
    assert model.converged is (got.status == 0)
    if case == "converged-at-zero":
        assert got.nit == 0 and got.nfev == 1 and not model.weights.any()
    np.testing.assert_allclose(model.weights, want.x.reshape(model.weights.shape), rtol=1e-6, atol=1e-9)
    oracle = replace(model, weights=want.x.reshape(model.weights.shape))
    assert decode_corpus(model, corpus + held) == decode_corpus(oracle, corpus + held)


def test_optimizer_restarts_and_stops_as_lbfgsb_after_failed_searches():
    # a gradient that disagrees with the function: the first search succeeds,
    # the next fails, the restart from -g fails too, and the run ends
    def fun(x):
        return float(np.abs(x).sum()), np.sign(x) * 0.001 + 1.0

    options = {"maxiter": 100, "maxcor": 10, "ftol": 1e-9, "gtol": 1e-5}
    runs = [scipy.optimize.minimize(fun, np.ones(3), jac=True, method=m, options=options) for m in ("L-BFGS-B", training._lbfgs)]
    want, got = runs
    assert (got.nit, got.nfev, got.status) == (want.nit, want.nfev, want.status) == (1, 48, 2)
    assert got.message == lbfgsb_message(want.message) and got.message.startswith("ABNORMAL")
    assert not got.success


def test_optimizer_counts_evaluations_as_lbfgsb_when_a_search_stalls():
    # the gradient -2x of x.x points uphill: the searches stall and try one
    # point twice in a row, which minimize's MemoizeJac answers from its cache
    calls = []

    def fun(x):
        calls.append(x.copy())
        return float(x @ x), -2.0 * x

    options = {"maxiter": 100, "maxcor": 10, "ftol": 1e-9, "gtol": 1e-5}
    runs = []
    for method in ("L-BFGS-B", training._lbfgs):
        calls.clear()
        runs.append(scipy.optimize.minimize(fun, np.ones(3), jac=True, method=method, options=options))
    want, got = runs
    assert (got.nit, got.nfev, got.status) == (want.nit, want.nfev, want.status)
    assert got.status == 2 and got.nfev == len(calls) == 18
    assert len({x.tobytes() for x in calls}) < len(calls)
    assert got.message == lbfgsb_message(want.message) and got.message.startswith("ABNORMAL: ")


def _minimize(fun, x0, callback=None):
    options = {"maxiter": 1000, "maxcor": 10, "ftol": 1e-20, "gtol": 1e-9}
    return scipy.optimize.minimize(fun, x0, jac=True, method=training._lbfgs, callback=callback, options=options)


def test_optimizer_reaches_the_minimum_of_an_ill_conditioned_quadratic():
    scale = np.logspace(0, 4, 30)
    center = np.random.default_rng(61).normal(size=30)

    def fun(x):
        diff = x - center
        return 0.5 * float((scale * diff * diff).sum()), scale * diff

    result = _minimize(fun, np.zeros(30))
    assert result.success and result.message.startswith("CONVERGENCE")
    np.testing.assert_allclose(result.x, center, rtol=0, atol=1e-8)
    assert result.fun <= 1e-15


def test_optimizer_solves_rosenbrock():
    seen = []
    result = _minimize(lambda x: (scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)), [-1.2, 1.0], callback=seen.append)
    assert result.success
    np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=0, atol=1e-4)
    # non-convex: some line searches need more than their first trial step
    assert result.nfev > result.nit + 1
    assert len(seen) == result.nit


def test_optimizer_result_owns_its_arrays():
    x0 = np.zeros(6)
    result = _minimize(lambda x: (float(((x - 1.0) ** 2).sum()), 2.0 * (x - 1.0)), x0)
    assert result.x.flags.owndata and result.x.base is None
    assert not np.shares_memory(result.x, result.jac) and not np.shares_memory(result.x, x0)
    assert not x0.any()


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_objective_products_are_bitwise_the_plain_expressions(kind):
    corpus = synthesize(20, mean_len=6.0, num_types=2, vocab=40, seed=62)
    _, compiled = training._prepare(corpus, Mode(kind, 4), True)
    objective = training.Objective(compiled, 0.3)
    rng = np.random.default_rng(63)
    for _ in range(2):  # the second call reuses the Objective's buffer
        w = rng.normal(scale=0.5, size=compiled.num_weights)
        gold, W = compiled.gold, w.reshape(compiled.gold.shape)
        value, grad = 0.0, np.zeros(gold.shape)
        for block in compiled.blocks:
            value += training._eval_block(block, W, grad)
        value -= float((gold * W).sum())
        grad -= gold
        value += 0.3 * float((W * W).sum())
        grad += 2.0 * 0.3 * W
        got_value, got_grad = objective(w)
        assert np.float64(got_value).tobytes() == np.float64(value).tobytes()
        assert got_grad.tobytes() == grad.ravel().tobytes()


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_decode_matches_string_lookup_reference(kind):
    rng = np.random.default_rng(40 + MODE_KINDS.index(kind))
    mode = Mode(kind, 4)
    train = [random_sentence(rng, n=int(rng.integers(1, 8))) for _ in range(6)]
    held = [random_sentence(rng, n=int(rng.integers(1, 8))) for _ in range(20)]
    model = fit(train, quick(max_iter=1), mode)
    scheme = label_scheme(mode)
    for _ in range(3):
        model.weights = rng.normal(scale=1.0, size=model.weights.shape)
        want = [segmentation_entities(viterbi(reference_scores(model, s))[0][0], scheme) for s in train + held]
        assert decode_corpus(model, train + held) == want


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_objective_matches_enumeration_at_large_weights(kind):
    # log Z, the gold score and the expected counts by enumeration over the
    # string-lookup factor table, at weight scales where exp overflows
    rng = np.random.default_rng(50 + MODE_KINDS.index(kind))
    mode = Mode(kind, 3)
    scheme = label_scheme(mode)
    corpus = [random_sentence(rng, n=int(rng.integers(1, 6))) for _ in range(4)]
    model = fit(corpus, quick(l2=0.0, max_iter=1), mode)
    model.lam = 0.0
    K, T = len(model.labels), len(model.index)
    ids = {template: tid for tid, template in enumerate(model.index)}
    for scale in (0.0, 5.0, 50.0, 1e3):
        model.weights = rng.normal(scale=scale, size=model.weights.shape)
        value, grad = objective_and_gradient(model, corpus)
        want_value, want_grad = 0.0, np.zeros(model.weights.shape)
        for sentence in corpus:
            scored = reference_scores(model, sentence)
            if scheme == IOB_SCHEME:
                tags = spans_to_iob(sentence.gold, sentence.n)
                gold = [((i, i), tags[i - 1]) for i in range(1, sentence.n + 1)]
            else:
                gold = list(project_gold(sentence, block_lattices(scored)[0])[0])
            gold = [(int(scored.layout.rows(0, *span)[0]), model.labels.index(label)) for span, label in gold]
            want_value += brute_log_partition(scored) - path_score(scored, gold)
            indptr, indices, data = reference_rows([sentence], block_lattices(scored), scheme != IOB_SCHEME, True, ids.get)
            S = len(scored.emission)
            X = sparse.csr_matrix((data, indices, indptr), shape=(S, T))
            m = brute_marginals(scored)
            counts = np.zeros((S, K))
            pairs = np.zeros((K + 1, K))
            prev = K
            for s, y in gold:
                counts[s, y] += 1.0
                pairs[prev, y] += 1.0
                prev = y
            want_grad[:T] += X.T @ (m.sum(axis=1) - counts)
            want_grad[T:] += m.sum(axis=0) - pairs
        assert np.isfinite(value) and np.isfinite(grad).all()
        assert value == pytest.approx(want_value, rel=1e-12, abs=1e-9), scale
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-9, err_msg=f"scale {scale}")


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_never_live_weights_stay_zero(kind):
    # a (template, label) cell or transition that no lattice of the corpus
    # allows has zero gradient, so L-BFGS from w = 0 never moves it
    mode = Mode(kind, 4)
    scheme = label_scheme(mode)
    for sentences, mean_len in ((30, 8.0), (70, 5.0)):  # one block, then two
        corpus = synthesize(sentences, mean_len=mean_len, num_types=2, vocab=40, seed=26)
        with mock.patch.object(training, "_BLOCK_SIZE", 64):
            model = fit(corpus, quick(l2=0.01, max_iter=30), mode)
            # compiled as fit compiles it: into a fresh dict, so an early block is narrower than W[:T]
            index = {}
            compiled = training._compile(corpus, mode, model.labels, index, True, project=True)
        assert len(compiled.blocks) == (sentences + 63) // 64
        assert tuple(index) == model.index
        T = len(model.index)
        widths = [block.units.shape[1] for block in compiled.blocks]
        assert widths == sorted(widths) and widths[-1] == T
        assert len(widths) == 1 or widths[0] < T
        live_cells = np.zeros((T, len(model.labels)))
        live_pairs = np.zeros(model.weights[T:].shape, dtype=bool)
        for block in compiled.blocks:
            allowed = np.concatenate([dense_mask(lat, model.labels, scheme) for lat in block_lattices(block.scored)])
            live_cells[: block.units.shape[1]] += (block.members @ block.units).T @ allowed.any(axis=1)
            live_pairs |= allowed.any(axis=0)
        never = np.vstack([live_cells == 0, ~live_pairs])
        assert never.any() and np.abs(model.weights[~never]).max() > 0
        assert (model.weights[never] == 0.0).all()


def test_decode_does_not_depend_on_block_layout():
    corpus = synthesize(150, mean_len=8.0, num_types=3, vocab=60, entity_rate=0.3, seed=25)
    model = fit(corpus[:40], quick(l2=0.01, max_iter=20), Mode("dgm", 8))
    whole = decode_corpus(model, corpus)  # one block
    assert len(whole) == 150 and sum(map(len, whole)) > 0
    assert whole == [decode_corpus(model, [s])[0] for s in corpus]
    with mock.patch.object(training, "_BLOCK_SIZE", 64):  # blocks of 64, 64 and 22
        assert whole == decode_corpus(model, corpus)
        assert whole == decode_corpus(model, corpus[:37]) + decode_corpus(model, corpus[37:])


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_objective_does_not_depend_on_block_layout(kind):
    # blocks of 7 (fifteen, the early ones narrower than W[:T]), of 64 (two) and the default (one)
    corpus = synthesize(100, mean_len=5.0, num_types=2, vocab=40, entity_rate=0.4, seed=28)
    mode = Mode(kind, 4)
    strings, results = [], []
    for size in (7, 64, training._BLOCK_SIZE):
        with mock.patch.object(training, "_BLOCK_SIZE", size):
            index, compiled = training._prepare(corpus, mode, True)
        assert len(compiled.blocks) == -(-len(corpus) // size)
        strings.append(index)
        w = np.random.default_rng(29).normal(size=compiled.num_weights)
        results.append(training.Objective(compiled, 0.01)(w))
    assert strings[0] == strings[1] == strings[2]
    assert len(results[0][1]) == len(results[-1][1])
    value, grad = results[-1]
    for v, g in results[:-1]:
        assert v == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(g, grad, rtol=0, atol=1e-9)


_HELD = synthesize(100, mean_len=6.0, num_types=3, vocab=60, entity_rate=0.3, seed=27)


@pytest.fixture(scope="module")
def fitted():
    """Per mode, a model fit once and its decode of the whole of _HELD (two blocks)."""
    out = {}
    for kind in MODE_KINDS:
        model = fit(_HELD[:30], quick(l2=0.01, max_iter=10), Mode(kind, 4))
        with mock.patch.object(training, "_BLOCK_SIZE", 64):
            out[kind] = model, decode_corpus(model, _HELD)
    return out


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MODE_KINDS), st.permutations(range(len(_HELD))), st.lists(st.integers(0, len(_HELD)), max_size=4))
def test_decode_does_not_depend_on_sentence_order_or_cuts(fitted, kind, order, cuts):
    model, whole = fitted[kind]
    shuffled = [_HELD[i] for i in order]
    bounds = [0, *sorted(cuts), len(shuffled)]
    pieces = [span for lo, hi in zip(bounds, bounds[1:]) for span in decode_corpus(model, shuffled[lo:hi])]
    unpermuted = [None] * len(_HELD)
    for i, spans in zip(order, pieces):
        unpermuted[i] = spans
    assert unpermuted == whole


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_decode_does_not_depend_on_template_order(tmp_path, fitted, kind):
    # a model file lists its own templates, so one saved in another order
    # (templates and the rows of W[:T] permuted alike) must decode the same
    model, whole = fitted[kind]
    T = len(model.index)
    order = np.random.default_rng(71 + MODE_KINDS.index(kind)).permutation(T)
    strings = model.index
    permuted = replace(
        model,
        index=tuple(strings[i] for i in order),
        weights=np.concatenate((model.weights[order], model.weights[T:])),
    )
    permuted.save(tmp_path / "permuted.json")
    permuted = Model.load(tmp_path / "permuted.json")
    assert permuted.index != strings
    assert decode_corpus(permuted, _HELD) == whole

    def best(m):
        block = training._block(_HELD, m.mode, m.labels, m.vocabulary, m.dep_features)
        training._fill_scores(block, m.weights)
        return viterbi(block.scored)

    want, got = best(model), best(permuted)
    assert [seg for seg, _ in got] == [seg for seg, _ in want]
    assert np.array([s for _, s in got]).tobytes() == np.array([s for _, s in want]).tobytes()


def test_decode_single_sentence_matches_corpus_decode(womack):
    corpus = synthesize(6, mean_len=6.0, num_types=2, vocab=0, entity_rate=0.4, seed=18)
    model = fit(corpus, quick(l2=0.0, max_iter=30), Mode("semi", 8))
    assert [decode_corpus(model, [s])[0] for s in corpus] == decode_corpus(model, corpus)


def test_decode_builds_one_vocabulary_per_model(tmp_path, fitted):
    # the vocabulary is built on a model's first decode and kept: later calls
    # and later blocks reuse it, and loading a model builds none. Assigning
    # the model other templates (here permuted, with the rows of W[:T])
    # drops it, so the next decode reads the new ids
    model, whole = fitted["dgm"]
    model.save(tmp_path / "model.json")
    with mock.patch.object(training, "Vocabulary", wraps=training.Vocabulary) as built:
        loaded = Model.load(tmp_path / "model.json")
        assert built.call_count == 0
        with mock.patch.object(training, "_BLOCK_SIZE", 10):  # ten blocks per call
            assert decode_corpus(loaded, _HELD) == whole
            assert decode_corpus(loaded, _HELD[:25]) == whole[:25]
        assert built.call_count == 1
        T = len(loaded.index)
        order = np.random.default_rng(72).permutation(T)
        loaded.index = tuple(loaded.index[i] for i in order)
        loaded.weights = np.concatenate((loaded.weights[order], loaded.weights[T:]))
        assert decode_corpus(loaded, _HELD) == whole
        assert built.call_count == 2


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_decoding_tables_are_only_a_cache(tmp_path, kind):
    # the first decode builds the model's vocabulary, its lookup tables; they
    # must change neither the model file nor any decoded span
    train = synthesize(30, mean_len=6.0, num_types=2, vocab=40, entity_rate=0.4, seed=33)
    held = synthesize(25, mean_len=7.0, num_types=2, vocab=80, entity_rate=0.4, seed=34)
    assert {t.surface for s in held for t in s.tokens} - {t.surface for s in train for t in s.tokens}
    model = fit(train, quick(l2=0.01, max_iter=15), Mode(kind, 4))
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    model.save(before)
    loaded = Model.load(before)
    want = decode_corpus(model, held)
    assert decode_corpus(loaded, held) == want and sum(map(len, want)) > 0
    for size in (1, 7, len(held)):
        parts = [held[i : i + size] for i in range(0, len(held), size)]
        assert [spans for part in parts for spans in decode_corpus(model, part)] == want
        assert [spans for part in parts for spans in decode_corpus(Model.load(before), part)] == want
    model.save(after)
    assert after.read_bytes() == before.read_bytes()
    loaded.save(after)
    assert after.read_bytes() == before.read_bytes()


def test_cross_validate_picks_working_regularizer():
    corpus = synthesize(12, mean_len=5.0, num_types=2, vocab=0, entity_rate=0.5, seed=19)
    config = quick(lambda_grid=(0.0001, 1000.0), folds=3, max_iter=40)
    best, means = cross_validate(corpus, config, Mode("linear"))
    assert set(means) == {0.0001, 1000.0}
    assert best == 0.0001
    assert means[0.0001] >= means[1000.0]
    # deterministic fold split: run twice, get the same numbers
    best2, means2 = cross_validate(corpus, config, Mode("linear"))
    assert best2 == best and means2 == means


def test_cross_validate_breaks_ties_toward_smaller_lambda():
    # nothing to learn: every candidate scores 0, the smaller one wins
    corpus = synthesize(8, mean_len=4.0, num_types=2, entity_rate=0.0, seed=20)
    assert all(not s.gold for s in corpus)
    config = quick(lambda_grid=(0.5, 0.001), folds=2, max_iter=3)
    best, means = cross_validate(corpus, config, Mode("linear"))
    assert means[0.5] == means[0.001] == 0.0
    assert best == 0.001


def test_cross_validate_validation():
    corpus = synthesize(4, mean_len=4.0, seed=21)
    with pytest.raises(ValueError, match="folds"):
        cross_validate(corpus, quick(folds=5), Mode("linear"))
    with pytest.raises(ValueError, match="grid"):
        cross_validate(corpus, quick(lambda_grid=()), Mode("linear"))


def test_trace_reports_decreasing_objective():
    corpus = synthesize(10, mean_len=6.0, num_types=2, vocab=30, seed=22)
    seen = []
    fit(corpus, quick(l2=0.1, max_iter=25), Mode("linear"), trace=seen.append)
    summary, *seen = seen
    assert list(summary) == ["compile"] and summary["compile"]["sentences"] == 10
    assert [r["iteration"] for r in seen] == list(range(1, len(seen) + 1))
    values = [r["objective"] for r in seen]
    assert all(math.isfinite(v) for v in values)
    assert values[-1] < values[0]


def test_huge_regularizer_collapses_weights():
    corpus = synthesize(6, mean_len=5.0, num_types=2, vocab=20, seed=23)
    model = fit(corpus, quick(l2=1e6, max_iter=50), Mode("linear"))
    assert np.abs(model.weights).max() <= 1e-3


def test_nonfinite_weights_raise_training_error():
    corpus = one_word_corpus()
    model = fit(corpus, quick(max_iter=1), Mode("semi", 2))
    model.weights = np.full(model.weights.shape, np.inf)
    with pytest.raises(TrainingError):
        objective_and_gradient(model, corpus)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit([], quick(), Mode("linear"))
    model = fit(one_word_corpus(), quick(max_iter=1), Mode("semi", 2))
    with pytest.raises(ValueError, match="empty"):
        objective_and_gradient(model, [])


def test_bench_reports_mean_and_spread():
    corpus = synthesize(8, mean_len=5.0, num_types=2, vocab=20, seed=24)
    mean, std = bench_per_evaluation(corpus, Mode("linear"), iters=3, warmup=1)
    assert mean > 0 and std >= 0
    with pytest.raises(ValueError):
        bench_per_evaluation(corpus, Mode("linear"), iters=0)
