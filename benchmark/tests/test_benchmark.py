"""Tiny-scale tests of the benchmark itself; no timing bounds.

Run from the repository root: ``python -m pytest benchmark/tests -q``.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hafformer as h  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import COMPONENTS  # noqa: E402

TINY_TRAIN = wl.Workload("tiny-train", train=True, seq_len=128, pairs=1, epochs=3)
TINY_INFER = wl.Workload("tiny-infer", train=False, seq_len=128, pairs=2)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=[TINY_TRAIN, TINY_INFER], ids=lambda w: w.name)
def traced(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param.name)
    return request.param, wl.run(request.param, 5, 0.01, True, workdir)


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert spec["paths"] == [BENCH.name]


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_INFER], ids=lambda w: w.name)
def test_untraced_run_prints_the_end_to_end_metrics(workload, spec, tmp_path):
    result = wl.run(workload, 3, 0.01, False, tmp_path)
    out = run.report(result, 0.1, trace=False)
    assert out["correct"], result.problems
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics(traced, spec):
    _, result = traced
    out = run.report(result, 0.1, trace=True)
    assert out["correct"], result.problems
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def test_forward_and_backward_splits_sum_to_their_totals(traced):
    workload, result = traced
    m = result.layers
    parts = ["model.forward.projection_ms", "model.forward.merge_ms", "mixers.token_ms", "mixers.channel_ms"]
    assert sum(m[k] for k in parts) + m["model.forward.rest_ms"] == pytest.approx(m["model.forward_ms"])
    vjps = [f"tensor.backward.{tag}_ms" for tag in (*COMPONENTS, "rest", "walk")]
    assert sum(m[k] for k in vjps) == pytest.approx(m["tensor.backward_ms"])
    assert (m["tensor.backward_ms"] > 0) == (m["training.step_ms"] > 0) == workload.train
    assert (m["data.load_embedding_ms"] > 0) == (m["model.load_checkpoint_ms"] > 0) == (not workload.train)
    assert m["tensor.nodes_per_sample"] > 0 and m["model.forward.projection_ms"] > 0


def test_traced_components_are_named_by_count_costs():
    cfg = h.model.ModelConfig()
    report = h.analysis.count_costs(cfg)
    suffixes = {e.component.rsplit(".", 1)[-1] for e in report.entries}
    assert set(COMPONENTS) <= suffixes
    macs = wl.component_macs(cfg)
    head = next(e.macs for e in report.entries if e.component == "head")
    assert sum(macs.values()) + head == report.macs_incl_projection
    assert macs["projection"] == 78_643_200


def _program_and_reference(seed=0):
    cfg = h.model.ModelConfig(seq_len=128, seed=seed)
    dataset, _ = wl.make_dataset(seed, 1, "train")
    return cfg, list(dataset.records)


def test_logit_check_fails_on_a_perturbed_logit():
    cfg, records = _program_and_reference()
    model = h.model.build_model(cfg)
    params = wl.param_values(model)
    program = {r.id: model.forward(h.data.pad_or_truncate(r.features, cfg.seq_len)).value[0] for r in records}
    expected = {r.id: reference.logits(params, cfg, r.features) for r in records}
    assert wl.check_logits(program, expected) == []
    rid = records[0].id
    program[rid] = program[rid] * (1 + 1e-7)
    assert len(wl.check_logits(program, expected)) == 1


def test_gradient_and_adamw_checks_fail_on_perturbed_values():
    cfg, records = _program_and_reference(seed=2)
    check = wl.gradient_check_records(2, cfg.seq_len)
    assert wl._check_one_step(cfg, check, 2, np.random.default_rng(0)) == []

    model = h.model.build_model(cfg)
    theta0 = {n: t.value.copy() for n, t in model.params.items()}
    h.training.train(model, h.data.Dataset(tuple(records)), 1, 2, 2, wl.LR, wl.WEIGHT_DECAY)
    grads = {n: t.grad for n, t in model.params.items()}
    theta1 = wl.param_values(model)
    assert wl.check_adamw(theta0, grads, theta1) == []
    name = "stage0.merge.weight"
    bumped = theta1[name].copy()
    bumped.flat[0] += 1e-9
    assert len(wl.check_adamw(theta0, grads, {**theta1, name: bumped})) == 1

    pairs = [(r.features, r.label) for r in records]
    moved = {}
    for sign in (1, -1):
        p = theta0[name].copy()
        p.flat[3] += sign * wl.FD_STEP
        moved[sign] = reference.mean_loss({**theta0, name: p}, cfg, pairs)
    fd = {(name, 3): (moved[1] - moved[-1]) / (2 * wl.FD_STEP)}
    program = {(name, 3): float(grads[name].flat[3])}
    assert wl.check_gradients(program, fd) == []
    perturbed = {(name, 3): program[(name, 3)] * (1 + 1e-3) + 1e-6}
    assert len(wl.check_gradients(perturbed, fd)) == 1


def test_descent_check_fails_on_an_uphill_step():
    cfg = h.model.ModelConfig(seq_len=128, seed=2)
    sample = wl.gradient_check_records(2, cfg.seq_len)
    pairs = [(r.features, r.label) for r in sample]
    model = h.model.build_model(cfg)
    theta0 = {n: t.value.copy() for n, t in model.params.items()}
    h.training.train(model, h.data.Dataset(tuple(sample)), 1, 2, 2, wl.DESCENT_LR, wl.WEIGHT_DECAY)
    theta1 = wl.param_values(model)
    before = reference.mean_loss(theta0, cfg, pairs)
    assert wl.check_descent(before, reference.mean_loss(theta1, cfg, pairs)) == []
    uphill = {n: 2 * theta0[n] - theta1[n] for n in theta0}  # the same step, sign flipped
    assert len(wl.check_descent(before, reference.mean_loss(uphill, cfg, pairs))) == 1


def test_loss_metric_and_feature_checks_fail_on_bad_values():
    assert wl.check_losses([{"mean_loss": 0.7}, {"mean_loss": 0.71}], 2) == []
    assert wl.check_losses([{"mean_loss": 0.7}], 2)
    assert wl.check_losses([{"mean_loss": 0.7}, {"mean_loss": float("nan")}], 2)

    metrics = h.training.Metrics(accuracy=0.5, f1=1 / 3, confusion=((1, 0), (1, 0)))
    assert wl.check_metrics(metrics, reference.metrics([0, 1], [0, 0], 2)) == []
    assert wl.check_metrics(metrics, reference.metrics([0, 1], [0, 1], 2))

    x = np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32)
    rec = h.data.EmbeddingRecord("r", x.astype(np.float64), 0)
    digests = {"r": hashlib.sha256(x.tobytes()).hexdigest()}
    assert wl.check_features(h.data.Dataset((rec,), "test"), digests) == []
    flipped = x.copy()
    flipped.view(np.uint32)[1, 1] ^= 1
    bad = h.data.EmbeddingRecord("r", flipped.astype(np.float64), 0)
    assert wl.check_features(h.data.Dataset((bad,), "test"), digests)


def test_make_dataset_sizes_do_not_depend_on_the_seed():
    shapes = [[r.features.shape for r in wl.make_dataset(s, 3, "train")[0].records] for s in (1, 2)]
    assert shapes[0] == shapes[1] == [(800, 1024)] * 2 + [(2000, 1024)] * 2 + [(3200, 1024)] * 2

    dataset, _ = wl.make_dataset(4, 3, "train")
    pair_seed = int(np.random.SeedSequence([4, 2]).generate_state(1)[0])
    for rec, orig in zip(dataset.records[4:], h.data.synthesize_dataset(1, pair_seed, wl.DIFFICULTY).records):
        n = orig.features.shape[0]
        assert rec.label == orig.label
        assert np.array_equal(rec.features[:n], orig.features) and not rec.features[n:].any()


def test_command_refuses_to_run_without_the_program(tmp_path, spec):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "train-desk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        spec["command"] + args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_command_refuses_threaded_blas(spec):
    command = [part for part in spec["command"] if not part.startswith("OPENBLAS_NUM_THREADS=")]
    args = ["--workload", "train-desk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(command + args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "OPENBLAS_NUM_THREADS" in proc.stderr

