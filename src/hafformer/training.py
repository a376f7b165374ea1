"""Deterministic optimization and evaluation: the train loop, AdamW, metrics.

Each mini-batch is one forward over all of its records, one graph and one
backward pass of the batch-mean loss, so two runs with the same seeds
produce bit-identical parameter trajectories. Evaluation runs one record
per forward and reads its features just before it, so a dataset loaded from
files is held one record at a time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, pad_or_truncate
from .errors import OptimizationError
from .model import Model, ParameterStore
from .tensor import cross_entropy

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """AdamW state: decoupled weight decay, bias-corrected moments with
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    Parameters with 1-D values (biases, norm affines) are exempt from
    weight decay.
    """

    lr: float
    weight_decay: float
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_optimizer(store: ParameterStore, lr: float = 2e-3, weight_decay: float = 1e-5) -> OptimizerState:
    state = OptimizerState(lr=lr, weight_decay=weight_decay)
    for name, tensor in store.items():
        state.m[name] = np.zeros_like(tensor.value)
        state.v[name] = np.zeros_like(tensor.value)
    return state


def adamw_step(store: ParameterStore, state: OptimizerState) -> None:
    """One AdamW update from the gradients held in the store.

    Missing gradients count as zero (decay still applies). Any non-finite
    gradient aborts before touching parameters or moments.
    """
    grads: dict[str, np.ndarray] = {}
    for name, tensor in store.items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.value)
        if not np.isfinite(g).all():
            raise OptimizationError(f"non-finite gradient for parameter {name}; step aborted")
        grads[name] = g

    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, tensor in store.items():
        g = grads[name]
        m = state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if tensor.value.ndim >= 2:
            update = update + state.weight_decay * tensor.value
        tensor.value = tensor.value - state.lr * update


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    f1: float  # macro-averaged; an absent class contributes 0
    confusion: tuple[tuple[int, ...], ...]  # confusion[true][pred]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "f1": self.f1,
            "confusion": [list(row) for row in self.confusion],
        }


def _prepared(record, cfg):
    """The record's first ``seq_len`` frames, unpadded: ``Model.forward`` zero-extends.

    Reads ``features`` once: a loaded record reads its file on each access.
    """
    x = record.features
    return pad_or_truncate(x, min(x.shape[0], cfg.seq_len))


def evaluate(model: Model, dataset: Dataset) -> Metrics:
    """Accuracy and macro-F1 under argmax predictions (ties pick class 0)."""
    n = model.cfg.num_classes
    confusion = np.zeros((n, n), dtype=int)
    for record in dataset.records:
        pred = int(np.argmax(model.forward(_prepared(record, model.cfg)).value[0]))
        confusion[record.label, pred] += 1
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total
    f1s = []
    for c in range(n):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        f1s.append(2.0 * tp / denom if denom > 0 else 0.0)
    return Metrics(
        accuracy=accuracy,
        f1=float(np.mean(f1s)),
        confusion=tuple(tuple(int(v) for v in row) for row in confusion),
    )


def train(
    model: Model,
    dataset: Dataset,
    epochs: int = 80,
    batch_size: int = 8,
    seed: int = 0,
    lr: float = 2e-3,
    weight_decay: float = 1e-5,
    log_path=None,
) -> list[dict]:
    """Shuffled mini-batch AdamW training; returns the per-epoch log.

    Per-epoch shuffles come from a dedicated stream seeded by ``seed``.
    Each batch is one forward of its records, unpadded and of any lengths,
    and one backward of their mean cross-entropy, so the batch gradient is
    the mean of the per-sample gradients. No early stopping.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    records = dataset.records
    n = len(records)
    inputs = [_prepared(r, model.cfg) for r in records]
    labels = np.array([r.label for r in records])
    shuffle_rng = np.random.default_rng(seed)
    state = init_optimizer(model.params, lr=lr, weight_decay=weight_decay)

    log: list[dict] = []
    log_fh = open(log_path, "w", encoding="utf-8", newline="\n") if log_path else None
    try:
        for epoch in range(epochs):
            t0 = time.perf_counter()
            order = shuffle_rng.permutation(n)
            loss_sum = 0.0
            correct = 0
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                model.params.zero_grad()
                logits = model.forward([inputs[idx] for idx in batch])
                loss = cross_entropy(logits, labels[batch])
                value = float(loss.value[0, 0])
                if not np.isfinite(value):  # then some row of logits is not finite
                    first = int(batch[~np.isfinite(logits.value).all(axis=1)][0])
                    raise OptimizationError(f"non-finite loss at epoch {epoch}, sample index {first}")
                loss.backward()
                loss_sum += value * len(batch)
                correct += int((np.argmax(logits.value, axis=1) == labels[batch]).sum())
                try:
                    adamw_step(model.params, state)
                except OptimizationError as exc:
                    raise OptimizationError(f"epoch {epoch}, step {state.t + 1}: {exc}") from None
            entry = {
                "epoch": epoch,
                "mean_loss": loss_sum / n,
                "train_acc": correct / n,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
            }
            log.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()
    finally:
        if log_fh:
            log_fh.close()
    return log
