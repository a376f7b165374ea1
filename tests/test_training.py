import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hafformer import data as data_module, mixers, model as model_module, training
from hafformer.data import (
    Dataset,
    EmbeddingRecord,
    load_dataset,
    pad_or_truncate,
    save_dataset,
    save_embedding,
    synthesize_dataset,
)
from hafformer.errors import CorruptionError, OptimizationError
from hafformer.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from hafformer.tensor import Tensor, grad_check
from hafformer.training import (
    Metrics,
    adamw_step,
    cross_entropy,
    evaluate,
    init_optimizer,
    train,
)

TINY = ModelConfig(seq_len=64, input_dim=16)


def tiny_dataset(n_per_class, seed, input_dim=16, shift=0.5, split="train"):
    """Handmade desk dataset: class 1 carries a mean shift."""
    rng = np.random.default_rng(seed)
    records = []
    for label in (0, 1):
        for i in range(n_per_class):
            frames = int(rng.integers(40, 90))
            x = rng.standard_normal((frames, input_dim)).astype(np.float32)
            if label == 1:
                x += shift
            records.append(EmbeddingRecord(f"{split}-{label}-{i}", x, label))
    return Dataset(tuple(records), split)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits():
    for label in (0, 1):
        loss = cross_entropy(Tensor([[0.0, 0.0]]), label)
        assert abs(loss.value[0, 0] - math.log(2)) < 1e-12


def test_cross_entropy_confident_correct():
    loss = cross_entropy(Tensor([[30.0, -30.0]]), 0)
    assert loss.value[0, 0] < 1e-12


def test_cross_entropy_matches_direct_formula(rng):
    for _ in range(20):
        z = rng.standard_normal(2) * 5
        label = int(rng.integers(0, 2))
        loss = cross_entropy(Tensor(z[None, :]), label)
        direct = -math.log(math.exp(z[label]) / (math.exp(z[0]) + math.exp(z[1])))
        assert abs(loss.value[0, 0] - direct) < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        cross_entropy(Tensor([[0.0, 0.0]]), 2)
    with pytest.raises(ValueError, match="label"):
        cross_entropy(Tensor([[0.0, 0.0]]), -1)


def test_cross_entropy_backward_is_softmax_minus_onehot(rng):
    z = rng.standard_normal((1, 2))
    logits = Tensor(z)
    loss = cross_entropy(logits, 1)
    loss.backward()
    e = np.exp(z[0] - z[0].max())
    p = e / e.sum()
    expect = p.copy()
    expect[1] -= 1.0
    assert logits.grad[0] == pytest.approx(expect, abs=1e-12)


def test_cross_entropy_gradient_finite_difference(rng):
    logits = Tensor(rng.standard_normal((1, 2)))
    assert grad_check(lambda: cross_entropy(logits, 0), [logits]) < 1e-6


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_pure_decay_on_zero_gradient():
    model = build_model(TINY)
    weight_before = {n: t.value.copy() for n, t in model.params.items()}
    state = init_optimizer(model.params)  # lr 2e-3, wd 1e-5
    model.params.zero_grad()
    adamw_step(model.params, state)
    factor = 1.0 - 2e-3 * 1e-5
    for name, before in weight_before.items():
        after = model.params[name].value
        if before.ndim >= 2:
            assert after == pytest.approx(before * factor, rel=1e-15), name
        else:
            assert np.array_equal(after, before), name  # biases/norms exempt


def test_adamw_first_step_hand_values():
    from hafformer.model import ParameterStore

    theta0 = 1.5
    t = Tensor(np.full((1, 1), theta0))
    store = ParameterStore({"w.matrix": t})
    state = init_optimizer(store)
    t.grad = np.ones((1, 1))
    adamw_step(store, state)
    # t=1: m_hat = v_hat = 1 exactly up to float cancellation in (1 - beta^1)
    m_hat = (0.1) / (1.0 - 0.9)
    v_hat = (0.001) / (1.0 - 0.999)
    expected = theta0 - 2e-3 * (m_hat / (math.sqrt(v_hat) + 1e-8) + 1e-5 * theta0)
    assert t.value[0, 0] == pytest.approx(expected, abs=1e-15)
    assert abs((theta0 - t.value[0, 0]) - 2e-3) < 1e-7


def test_adamw_aborts_on_non_finite_gradient():
    model = build_model(TINY)
    before = {n: model.params[n].value.copy() for n in model.params}
    state = init_optimizer(model.params)
    model.params["head.fc1.weight"].grad = np.full((16, 16), np.nan)
    with pytest.raises(OptimizationError, match="head.fc1.weight"):
        adamw_step(model.params, state)
    for name, b in before.items():
        assert np.array_equal(model.params[name].value, b), name
    assert state.t == 0


def test_adamw_trajectories_are_deterministic():
    def run():
        model = build_model(replace(TINY, seed=4))
        ds = tiny_dataset(4, seed=10)
        train(model, ds, epochs=3, batch_size=4, seed=1)
        return {n: model.params[n].value.copy() for n in model.params}

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_all_correct(rng):
    model = build_model(replace(TINY, seed=0))
    # label records by the model's own predictions; both classes must appear
    records = []
    labels = set()
    for i in range(12):
        x = rng.standard_normal((64, 16)).astype(np.float32)
        pred = int(np.argmax(model.forward(x).value[0]))
        labels.add(pred)
        records.append(EmbeddingRecord(f"m-{i}", x, pred))
    assert labels == {0, 1}, "seed must produce both predicted classes"
    metrics = evaluate(model, Dataset(tuple(records), "test"))
    assert metrics.accuracy == 1.0
    assert metrics.f1 == 1.0


def test_evaluate_constant_predictor_on_balanced_set():
    model = build_model(TINY)
    for name in model.params:
        t = model.params[name]
        t.value = np.zeros_like(t.value)  # logits [0, 0] -> tie -> class 0
    ds = tiny_dataset(5, seed=3, split="test")
    metrics = evaluate(model, ds)
    assert metrics.accuracy == 0.5
    assert metrics.f1 == pytest.approx(1.0 / 3.0)
    assert metrics.confusion == ((5, 0), (5, 0))


def test_evaluate_empty_dataset():
    model = build_model(TINY)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, Dataset((), "test"))


def test_metrics_are_order_invariant():
    model = build_model(replace(TINY, seed=6))
    ds = tiny_dataset(4, seed=8, split="test")
    shuffled = Dataset(tuple(reversed(ds.records)), "test")
    assert evaluate(model, ds) == evaluate(model, shuffled)


def test_metrics_to_dict_round_trips_through_json():
    m = Metrics(accuracy=0.75, f1=0.7, confusion=((3, 1), (1, 3)))
    payload = json.loads(json.dumps(m.to_dict()))
    assert payload["accuracy"] == 0.75
    assert payload["confusion"] == [[3, 1], [1, 3]]


# ---------------------------------------------------------------------------
# training loop


def test_zero_epochs_leaves_model_unchanged():
    model = build_model(TINY)
    before = {n: model.params[n].value.copy() for n in model.params}
    log = train(model, tiny_dataset(3, seed=1), epochs=0)
    assert log == []
    for name, b in before.items():
        assert np.array_equal(model.params[name].value, b)


def test_training_learns_mean_shift_task(tmp_path):
    model = build_model(replace(TINY, seed=0))
    ds = tiny_dataset(12, seed=21, shift=1.0)
    log_path = tmp_path / "log.jsonl"
    log = train(model, ds, epochs=20, batch_size=8, seed=2, log_path=log_path)
    assert len(log) == 20
    assert log[-1]["mean_loss"] < log[0]["mean_loss"]
    assert log[-1]["train_acc"] >= 0.9
    lines = log_path.read_text().splitlines()
    assert len(lines) == 20
    parsed = json.loads(lines[-1])
    assert set(parsed) == {"epoch", "mean_loss", "train_acc", "wall_ms"}
    held_out = tiny_dataset(8, seed=99, shift=1.0, split="test")
    assert evaluate(model, held_out).accuracy >= 0.9


def test_single_step_descent_majority_over_seeds():
    # fixed synthetic batch; a fresh model should descend at lr 2e-3
    cfg = replace(ModelConfig(), seq_len=256)
    batch = synthesize_dataset(4, seed=500, difficulty=1.0)
    decreased = 0
    for seed in range(5):
        model = build_model(replace(cfg, seed=seed))

        def batch_loss():
            total = 0.0
            for rec in batch.records:
                x = rec.features[:256]
                total += float(cross_entropy(model.forward(x), rec.label).value[0, 0])
            return total / len(batch)

        before = batch_loss()
        model.params.zero_grad()
        for rec in batch.records:
            loss = cross_entropy(model.forward(rec.features[:256]), rec.label)
            loss.backward(1.0 / len(batch))
        state = init_optimizer(model.params)
        adamw_step(model.params, state)
        if batch_loss() < before:
            decreased += 1
    assert decreased >= 3


def test_train_reaches_every_patchable_seam(monkeypatch):
    """The module attributes that per-layer tracing wraps are the ones training calls."""
    calls = Counter()
    convs = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "conv1d":
                merge = kwargs.get("merge")
                factor = merge[0].value.shape[2] if merge else None
                convs.append((args[1].value.shape[2], isinstance(args[0], list), factor))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(model_module, "conv1d")
    counting(mixers, "token_mix")
    counting(mixers, "channel_mix")
    for name in ("pad_or_truncate", "adamw_step", "cross_entropy"):
        counting(training, name)
    model = build_model(TINY)
    ds = tiny_dataset(3, seed=4)
    training.train(model, ds, 1, 4, 0)
    samples, blocks, batches = len(ds), sum(TINY.stage_depths), 2
    # (kernel width, input is a list, factor of the folded merge): the
    # projection over records with the stage-0 merge first, then the merges
    # of the later stages
    first, *later = TINY.stage_factors
    assert convs == [(TINY.proj_kernel, True, first), *((f, False, None) for f in later)] * batches
    assert calls == Counter(
        conv1d=batches * len(TINY.stage_factors),
        token_mix=batches * blocks,
        channel_mix=batches * blocks,
        pad_or_truncate=samples,
        cross_entropy=batches,
        adamw_step=batches,
    )


def test_inference_reaches_every_patchable_seam(monkeypatch, tmp_path):
    """Per-layer tracing of inference wraps ``data.load_embedding`` and
    ``model.conv1d``: loading a dataset reads each file once, in manifest
    order, and evaluating it calls them there, reading each file once more,
    just before its forward."""
    files, weights = [], []  # each conv's weight, and the folded merge's if it has one
    load_embedding, conv1d = data_module.load_embedding, model_module.conv1d

    def counting_load(path, *args, **kwargs):
        files.append((path.name, len(weights)))  # and how many convs ran before it
        return load_embedding(path, *args, **kwargs)

    def counting_conv(x, weight, *args, **kwargs):
        weights.append(weight)
        if "merge" in kwargs:
            weights.append(kwargs["merge"][0])
        return conv1d(x, weight, *args, **kwargs)

    monkeypatch.setattr(data_module, "load_embedding", counting_load)
    monkeypatch.setattr(model_module, "conv1d", counting_conv)
    ds = tiny_dataset(2, seed=5, split="test")
    save_dataset(tmp_path, ds)
    loaded = load_dataset(tmp_path, "test", expected_cols=TINY.input_dim)
    names = [f"{r.id}.hafe" for r in ds.records]
    assert files == [(name, 0) for name in names]
    files.clear()
    model = build_model(TINY)
    evaluate(model, loaded)
    convs = len(TINY.stage_factors) + 1  # per forward: the projection's weight and each merge's
    assert files == [(name, i * convs) for i, name in enumerate(names)]
    merges = [model.params[f"stage{s}.merge.weight"] for s in range(len(TINY.stage_factors))]
    # the projection first, carrying the stage-0 merge, then one merge per later stage
    assert weights == [model.params["projection.weight"], *merges] * len(ds)


def test_train_on_short_records_holds_no_padded_copy():
    """800-frame records at seq_len 3200: one epoch never holds a padded input."""
    rng = np.random.default_rng(8)
    records = tuple(
        EmbeddingRecord(f"r{label}", rng.standard_normal((800, 1024), dtype=np.float32), label)
        for label in (0, 1)
    )
    model = build_model(ModelConfig(seed=1))
    tracemalloc.start()
    try:
        train(model, Dataset(records), epochs=1, batch_size=2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3200 * 1024 * 8  # one zero-padded float64 input


def evaluation_peak_bytes(model, directory, n: int, frames: int) -> int:
    """tracemalloc peak of loading and evaluating ``n`` saved records of ``frames`` frames."""
    rng = np.random.default_rng(n)
    records = tuple(
        EmbeddingRecord(f"r{i}", rng.standard_normal((frames, 1024), dtype=np.float32), i % 2)
        for i in range(n)
    )
    save_dataset(directory, Dataset(records, "test"))
    tracemalloc.start()
    try:
        evaluate(model, load_dataset(directory, "test"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluating_files_holds_one_record_at_a_time(tmp_path):
    """The peak does not grow with the split: 12 records cost less than 4 plus one."""
    frames = 256
    model = build_model(ModelConfig(seq_len=frames, seed=2))
    four = evaluation_peak_bytes(model, tmp_path / "four", 4, frames)
    twelve = evaluation_peak_bytes(model, tmp_path / "twelve", 12, frames)
    assert twelve < four + frames * 1024 * 4


def test_evaluating_saved_records_matches_evaluating_them_in_memory(tmp_path):
    model = build_model(replace(TINY, seed=3))
    train(model, tiny_dataset(3, seed=40), epochs=2, batch_size=3, seed=1)
    held_out = tiny_dataset(5, seed=41, split="test")
    save_dataset(tmp_path, held_out)
    loaded = load_dataset(tmp_path, "test", expected_cols=TINY.input_dim)
    assert evaluate(model, loaded) == evaluate(model, held_out)


def test_a_file_corrupted_after_loading_raises_when_its_record_is_read(tmp_path):
    ds = tiny_dataset(2, seed=42, split="test")
    save_dataset(tmp_path, ds)
    loaded = load_dataset(tmp_path, "test", expected_cols=TINY.input_dim)
    last = ds.records[-1]
    features = last.features.copy()
    features[3, 5] = np.nan
    save_embedding(tmp_path / f"{last.id}.hafe", EmbeddingRecord(last.id, features, 0))
    with pytest.raises(CorruptionError, match=f"{last.id}.hafe: feature values include NaN"):
        evaluate(build_model(TINY), loaded)


def test_training_on_short_records_matches_their_zero_padded_copies():
    ds = tiny_dataset(3, seed=6)
    padded = Dataset(
        tuple(
            EmbeddingRecord(r.id, pad_or_truncate(r.features, TINY.seq_len), r.label)
            for r in ds.records
        )
    )
    assert any(r.features.shape[0] < TINY.seq_len for r in ds.records)
    short_model, padded_model = build_model(TINY), build_model(TINY)
    short_log = train(short_model, ds, 2, 3, 0)
    padded_log = train(padded_model, padded, 2, 3, 0)
    for a, b in zip(short_log, padded_log):
        assert a["mean_loss"] == pytest.approx(b["mean_loss"], rel=1e-12)
        assert a["train_acc"] == b["train_acc"]
    for name in short_model.params:
        want = padded_model.params[name].value
        got = short_model.params[name].value
        assert np.max(np.abs(got - want)) <= 1e-9 * max(np.max(np.abs(want)), 1.0), name
    assert evaluate(short_model, ds) == evaluate(padded_model, padded)


def test_checkpoint_reload_preserves_metrics(tmp_path):
    model = build_model(replace(TINY, seed=13))
    train(model, tiny_dataset(4, seed=31), epochs=2, batch_size=4, seed=7)
    held_out = tiny_dataset(4, seed=32, split="test")
    before = evaluate(model, held_out)
    path = tmp_path / "ckpt.hafc"
    save_checkpoint(model, path)
    after = evaluate(load_checkpoint(path), held_out)
    assert before == after


def test_train_requires_labels_and_records():
    model = build_model(TINY)
    with pytest.raises(ValueError, match="empty"):
        train(model, Dataset((), "train"))
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        EmbeddingRecord("u", np.zeros((4, 16), dtype=np.float32), None)
