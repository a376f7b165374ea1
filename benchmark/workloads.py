"""The benchmark's workloads: inputs, set-up, timed loop and correctness checks.

Everything the program does inside a timed window goes through the calls
that ``haff train`` and ``haff eval`` make (``training.train``,
``data.load_dataset``, ``training.evaluate``), so a change inside them
shows. Checks against the plain-numpy ``reference`` run outside the window.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import hafformer as h
import numpy as np

import reference
from tracing import COMPONENTS, Tracer

BATCH_SIZE = 8
LR = 2e-3
WEIGHT_DECAY = 1e-5
DIFFICULTY = 1.0
SETUP_REPEATS = 5
LOGIT_RTOL = 1e-9
GRAD_TOL = 1e-4
GRAD_FLOOR = 1e-3  # gradients below this are compared in absolute terms
FD_STEP = 1e-5
FD_COORDS = 6
ADAMW_RTOL = 1e-9
DESCENT_LR = 1e-5  # small enough that one step is in the loss's first-order regime
MMAP_THRESHOLD_MAX = 32 << 20  # glibc's ceiling for its dynamic mmap threshold on 64-bit


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool
    seq_len: int
    pairs: int  # records per class
    epochs: int = 0  # per training round; inference makes one pass per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-paper", train=True, seq_len=3200, pairs=4, epochs=3),
        Workload("train-desk", train=True, seq_len=512, pairs=8, epochs=3),
        Workload("infer-files", train=False, seq_len=3200, pairs=6),
    )
}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    samples: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rounds: int = 0  # rounds that completed
    setup_s: float = 0.0  # median program set-up, imports excluded
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)  # failed correctness checks
    errors: list[str] = field(default_factory=list)  # exceptions from timed operations
    layers: dict[str, float] = field(default_factory=dict)


def frame_schedule(pairs: int) -> list[int]:
    """Record lengths, evenly spaced over the synthetic generator's range."""
    lo, hi = h.data.SYNTH_MIN_FRAMES, h.data.SYNTH_MAX_FRAMES
    return [int(v) for v in np.linspace(lo, hi, pairs).round()]


def make_dataset(seed: int, pairs: int, split: str):
    """``pairs`` records per class from ``synthesize_dataset``, one call per pair.

    Pair j is drawn with a seed derived from (seed, j) and both its records
    are cut or zero-filled to the j-th length of ``frame_schedule``, so the
    content depends on the seed but the sizes, and with them the work and
    the memory, do not. The records are resized in place and the longest
    pair comes last, so building the set never holds more memory than the
    finished set does. Returns the dataset and the seconds spent inside
    ``synthesize_dataset``.
    """
    records, synth_s = [], 0.0
    for j, frames in enumerate(frame_schedule(pairs)):
        pair_seed = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
        t0 = time.perf_counter()
        pair = h.data.synthesize_dataset(1, pair_seed, DIFFICULTY, split)
        synth_s += time.perf_counter() - t0
        for rec in pair.records:
            x = rec.features
            x.resize((frames, x.shape[1]), refcheck=False)  # zero-fills a grown tail
            records.append(h.data.EmbeddingRecord(f"{split}-{rec.label}-{j:04d}", x, rec.label))
    return h.data.Dataset(tuple(records), split), synth_s


def model_config(workload: Workload, seed: int):
    return h.model.ModelConfig(seq_len=workload.seq_len, seed=seed % 2**31)


def param_values(model) -> dict[str, np.ndarray]:
    return {name: t.value for name, t in model.params.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def relative_error(got, want) -> float:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when all hold


def check_logits(program: dict, expected: dict) -> list[str]:
    """``{id: logits}`` from the program against the reference's, to LOGIT_RTOL relative."""
    out = []
    for rid, want in expected.items():
        err = relative_error(program[rid], want)
        if not err <= LOGIT_RTOL:
            out.append(f"logits of {rid} differ from the reference by {err:.3g} relative")
    return out


def check_gradients(program: dict, finite_differences: dict) -> list[str]:
    """``{(name, index): gradient}`` against central differences of the reference loss."""
    out = []
    for key, fd in finite_differences.items():
        ad = program[key]
        err = abs(ad - fd) / max(GRAD_FLOOR, abs(ad), abs(fd))
        if not err < GRAD_TOL:
            out.append(f"gradient of {key[0]}[{key[1]}] is {ad:.6g}, finite differences give {fd:.6g}")
    return out


def check_adamw(theta0: dict, grads: dict, theta1: dict) -> list[str]:
    """One program AdamW step from zero moments against the reference update."""
    out = []
    for name, before in theta0.items():
        want, _, _ = reference.adamw(before, grads[name], 0.0, 0.0, 1, LR, WEIGHT_DECAY)
        err = relative_error(before - theta1[name], before - want)
        if not err <= ADAMW_RTOL:
            out.append(f"AdamW update of {name} differs from the reference by {err:.3g} relative")
    return out


def check_losses(log: list[dict], epochs: int) -> list[str]:
    losses = [entry["mean_loss"] for entry in log]
    if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
        return [f"training log has losses {losses}, expected {epochs} finite values"]
    return []


def check_descent(loss_before: float, loss_after: float) -> list[str]:
    """A small step of ``train`` must lower the reference loss of the batch it saw."""
    if not loss_after < loss_before:
        return [f"a step at lr {DESCENT_LR:g} did not lower the loss: {loss_before:.10g} -> {loss_after:.10g}"]
    return []


def check_metrics(metrics, expected) -> list[str]:
    accuracy, f1, confusion = expected
    if [list(row) for row in metrics.confusion] != confusion or not (
        abs(metrics.accuracy - accuracy) <= 1e-12 and abs(metrics.f1 - f1) <= 1e-12
    ):
        return [f"evaluate reported {metrics.to_dict()}, the reference gives {accuracy}, {f1}, {confusion}"]
    return []


def check_features(dataset, digests: dict) -> list[str]:
    """Loaded float64 features must be the float32 values written, bit for bit."""
    out = []
    for rec in dataset.records:
        as32 = rec.features.astype("<f4")
        if hashlib.sha256(as32.tobytes()).hexdigest() != digests[rec.id] or not np.array_equal(
            as32.astype(np.float64), rec.features
        ):
            out.append(f"features of {rec.id} read back differ from those written")
    return out


# ---------------------------------------------------------------------------
# the workloads


def settle_allocator() -> None:
    """Raise glibc malloc's dynamic mmap threshold to its ceiling.

    glibc serves a block above the threshold with a fresh mmap, and raises
    the threshold to the size of each such block freed, up to 32 MiB. Left
    alone, the seed-dependent temporaries of ``synthesize_dataset`` decide
    whether the program's 4-26 MB arrays come from page-faulting mmaps or
    from the reused heap, and train-desk ran 10-15% slower on some seeds
    than on others, every time. Freeing one untouched block just under the
    ceiling puts every seed in the state a long-running process reaches,
    without adding to resident memory. Other allocators just free the block.
    """
    block = np.empty(MMAP_THRESHOLD_MAX - (64 << 10), dtype=np.uint8)
    del block


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    return (_run_training if workload.train else _run_inference)(workload, seed, seconds, trace, workdir)


def _timed_rounds(seconds, round_fn, tracer, result: Result):
    """Call ``round_fn`` until ``seconds`` of wall time have passed; it times itself."""
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            round_fn()
    finally:
        if tracer:
            tracer.uninstall()
    result.peak_rss_mb = peak_rss_mb()


def _timed_call(result: Result, samples: int, operations: int, fn):
    """Run one round of the program; count it and return its value, or None if it raised."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        value = None
        result.failed += operations
        result.errors.append(f"{type(exc).__name__}: {exc}")
    t1, c1 = time.perf_counter(), time.process_time()
    result.attempted += operations
    result.wall_s += t1 - t0
    result.cpu_s += c1 - c0
    if value is not None:
        result.samples += samples
        result.rounds += 1
    return value


def _run_training(workload, seed, seconds, trace, workdir) -> Result:
    result = Result()
    cfg = model_config(workload, seed)
    setups, synths, builds = [], [], []

    def set_up():
        t0 = time.perf_counter()
        dataset, synth_s = make_dataset(seed, workload.pairs, "train")
        t1 = time.perf_counter()
        h.model.build_model(cfg)
        t2 = time.perf_counter()
        setups.append(t2 - t0)
        synths.append(synth_s)
        builds.append(t2 - t1)
        return dataset

    dataset = set_up()
    settle_allocator()
    n = len(dataset)
    steps = workload.epochs * math.ceil(n / BATCH_SIZE)
    state = {}

    def one_round():
        model = h.model.build_model(cfg)
        log = _timed_call(
            result,
            n * workload.epochs,
            steps,
            lambda: h.training.train(model, dataset, workload.epochs, BATCH_SIZE, seed, LR, WEIGHT_DECAY),
        )
        if log is not None:
            state["model"], state["log"] = model, log

    tracer = Tracer() if trace else None
    _timed_rounds(seconds, one_round, tracer, result)

    # checks, outside the timed window
    rng = np.random.default_rng([seed, 1])
    pair = rng.integers(workload.pairs)
    sample = [r for r in dataset.records if r.id.endswith(f"-{pair:04d}")]
    if "model" in state:
        result.problems += check_losses(state["log"], workload.epochs)
        trained = state["model"]
        params = param_values(trained)
        program = {
            r.id: trained.forward(h.data.pad_or_truncate(r.features, cfg.seq_len)).value[0]
            for r in sample
        }
        result.problems += check_logits(
            program, {r.id: reference.logits(params, cfg, r.features) for r in sample}
        )
    result.problems += _check_one_step(cfg, gradient_check_records(seed, cfg.seq_len), seed, rng)

    if tracer:
        rec = dataset.records[0]
        model = state.get("model") or h.model.build_model(cfg)

        def one_sample():
            x = h.data.pad_or_truncate(rec.features, cfg.seq_len)
            h.training.cross_entropy(model.forward(x), rec.label).backward()

        result.layers = _layer_metrics(cfg, tracer, result, steps_per_round=steps)
        result.layers["tensor.sample_peak_mb"] = _traced_peak_mb(one_sample)

    # further set-ups for a median; after the window, so that their heap
    # fragments cannot raise the peak memory measured above
    dataset = sample = state = None
    for _ in range(SETUP_REPEATS - 1):
        set_up()
    result.setup_s = statistics.median(setups)
    if tracer:
        result.layers["data.synthesize_dataset_s"] = statistics.median(synths)
        result.layers["model.build_model_ms"] = 1e3 * statistics.median(builds)
    return result


def gradient_check_records(seed: int, frames: int):
    """One record per class with real content on every frame.

    Zero-padded frames stay exactly zero through stage 0 of a freshly
    built model, so the norms after them see zero variance and the loss is
    too curved there for any finite-difference step; repeating the record
    to ``frames`` avoids that.
    """
    pair_seed = int(np.random.SeedSequence([seed, 2**16]).generate_state(1)[0])
    pair = h.data.synthesize_dataset(1, pair_seed, DIFFICULTY, "train")
    return [
        h.data.EmbeddingRecord(r.id, np.resize(r.features, (frames, r.features.shape[1])), r.label)
        for r in pair.records
    ]


def _check_one_step(cfg, sample, seed, rng) -> list[str]:
    """One AdamW step of ``train`` on ``sample``: its gradient, its update, and
    that a small step goes downhill."""
    model = h.model.build_model(cfg)
    theta0 = {name: t.value.copy() for name, t in model.params.items()}
    h.training.train(model, h.data.Dataset(tuple(sample)), 1, len(sample), seed, LR, WEIGHT_DECAY)
    grads = {name: t.grad for name, t in model.params.items()}
    problems = check_adamw(theta0, grads, param_values(model))

    pairs = [(x.features, x.label) for x in sample]
    model = h.model.build_model(cfg)
    h.training.train(model, h.data.Dataset(tuple(sample)), 1, len(sample), seed, DESCENT_LR, WEIGHT_DECAY)
    problems += check_descent(
        reference.mean_loss(theta0, cfg, pairs), reference.mean_loss(param_values(model), cfg, pairs)
    )

    names = sorted(theta0)
    chosen = ["projection.weight", "stage0.merge.weight"]
    chosen += [names[i] for i in rng.choice(len(names), FD_COORDS - len(chosen), replace=False)]
    program, fd = {}, {}
    for name in chosen:
        index = int(rng.integers(theta0[name].size))
        losses = []
        for sign in (1.0, -1.0):
            moved = theta0[name].copy()
            moved.flat[index] += sign * FD_STEP
            losses.append(reference.mean_loss({**theta0, name: moved}, cfg, pairs))
        fd[(name, index)] = (losses[0] - losses[1]) / (2 * FD_STEP)
        program[(name, index)] = float(grads[name].flat[index])
    return problems + check_gradients(program, fd)


def _run_inference(workload, seed, seconds, trace, workdir) -> Result:
    result = Result()
    cfg = model_config(workload, seed)
    data_dir, ckpt = workdir / "test", workdir / "model.hafc"
    dataset, synth_s = make_dataset(seed, workload.pairs, "test")
    settle_allocator()
    h.data.save_dataset(data_dir, dataset)
    h.model.save_checkpoint(h.model.build_model(cfg), ckpt)
    digests = {r.id: hashlib.sha256(r.features.astype("<f4").tobytes()).hexdigest() for r in dataset.records}
    file_bytes = [(data_dir / f"{r.id}.hafe").stat().st_size for r in dataset.records]

    loads, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        model = h.model.load_checkpoint(ckpt)
        t1 = time.perf_counter()
        h.model.build_model(cfg)
        builds.append(time.perf_counter() - t1)
        loads.append(t1 - t0)
    result.setup_s = statistics.median(loads)

    params = param_values(model)
    ref_logits = {r.id: reference.logits(params, cfg, r.features) for r in dataset.records}
    expected = reference.metrics(
        [r.label for r in dataset.records],
        [int(np.argmax(ref_logits[r.id])) for r in dataset.records],
        cfg.num_classes,
    )
    n = len(dataset)
    dataset = None  # the timed passes read the files, not this copy

    def one_pass():
        metrics = _timed_call(
            result, n, n, lambda: h.training.evaluate(model, h.data.load_dataset(data_dir, "test"))
        )
        if metrics is not None:
            result.problems += check_metrics(metrics, expected)

    tracer = Tracer() if trace else None
    _timed_rounds(seconds, one_pass, tracer, result)

    # checks, outside the timed window, on one more load of the files
    loaded = h.data.load_dataset(data_dir, "test")
    result.problems += check_features(loaded, digests)
    rng = np.random.default_rng([seed, 1])
    sample = [loaded.records[i] for i in rng.choice(n, 2, replace=False)]
    program = {r.id: model.forward(h.data.pad_or_truncate(r.features, cfg.seq_len)).value[0] for r in sample}
    result.problems += check_logits(program, {r.id: ref_logits[r.id] for r in sample})

    if tracer:
        rec = loaded.records[0]
        result.layers = _layer_metrics(cfg, tracer, result, steps_per_round=0)
        result.layers["tensor.sample_peak_mb"] = _traced_peak_mb(
            lambda: model.forward(h.data.pad_or_truncate(rec.features, cfg.seq_len))
        )
        result.layers["data.synthesize_dataset_s"] = synth_s
        result.layers["data.bytes_per_record"] = statistics.fmean(file_bytes)
        result.layers["model.build_model_ms"] = 1e3 * statistics.median(builds)
        result.layers["model.load_checkpoint_ms"] = 1e3 * statistics.median(loads)
    return result


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run


def _traced_peak_mb(fn) -> float:
    """Peak of traced (numpy and Python) allocations while ``fn`` runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def component_macs(cfg) -> dict[str, int]:
    """MACs per sample of each traced component, summed over ``count_costs`` entries."""
    macs = dict.fromkeys(COMPONENTS, 0)
    for entry in h.analysis.count_costs(cfg).entries:
        suffix = entry.component.rsplit(".", 1)[-1]
        if suffix in macs:
            macs[suffix] += entry.macs
    return macs


def _layer_metrics(cfg, tracer: Tracer, result: Result, steps_per_round: int) -> dict[str, float]:
    samples = max(result.samples, 1)
    fwd = tracer.forward_split_ms(samples)
    bwd = tracer.backward_split_ms(samples)
    macs = component_macs(cfg)

    def gmac_s(tag):
        return macs[tag] / fwd[tag] / 1e6 if fwd[tag] > 0 else 0.0

    def per_call_ms(key):
        return 1e3 * tracer.seconds[key] / max(tracer.counts[key], 1)

    steps = result.rounds * steps_per_round

    return {
        "model.forward_ms": fwd["total"],
        "model.forward.projection_ms": fwd["projection"],
        "model.forward.merge_ms": fwd["merge"],
        "model.forward.rest_ms": fwd["rest"],
        "model.forward.projection_gmac_s": gmac_s("projection"),
        "mixers.token_ms": fwd["token"],
        "mixers.channel_ms": fwd["channel"],
        "mixers.token_gmac_s": gmac_s("token"),
        "mixers.channel_gmac_s": gmac_s("channel"),
        "tensor.backward_ms": bwd["total"],
        **{f"tensor.backward.{tag}_ms": bwd[tag] for tag in (*COMPONENTS, "rest", "walk")},
        "tensor.nodes_per_sample": tracer.counts["nodes"] / samples,
        "training.step_ms": 1e3 * result.wall_s / steps if steps else 0.0,
        "training.adamw_step_ms": per_call_ms("adamw_step"),
        "data.load_embedding_ms": per_call_ms("load_embedding"),
        "data.pad_or_truncate_ms": per_call_ms("pad_or_truncate"),
        "data.bytes_per_record": 0.0,
        "model.load_checkpoint_ms": 0.0,
    }
