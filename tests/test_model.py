import inspect
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from hafformer import analysis
from hafformer import model as model_module
from hafformer.errors import ConfigError, CorruptionError, FormatError, ShapeError
from hafformer.mixers import ALL_MIXER_COMBOS, ChannelMixerKind, TokenMixerKind
from hafformer.model import ModelConfig, build_model, load_checkpoint, param_shapes, save_checkpoint
from hafformer.tensor import grad_check
from hafformer.training import cross_entropy

from oracle_forward import ref_forward

SMALL = ModelConfig(seq_len=64, input_dim=16)


# ---------------------------------------------------------------------------
# configuration


# the paper's four hierarchies as (stage_factors, stage_depths)
H2 = ((4, 2), (2, 2))
H3_1 = ((4, 2, 2), (2, 2, 1))
H3_2 = ((4, 2, 2), (2, 2, 2))
H4 = ((4, 2, 2, 2), (2, 2, 2, 1))


def hierarchy(cfg: ModelConfig, stages) -> ModelConfig:
    factors, depths = stages
    return replace(cfg, stage_factors=factors, stage_depths=depths)


def test_the_paper_hierarchies_at_3200_frames():
    cfg = ModelConfig()
    assert (cfg.stage_factors, cfg.stage_depths) == H3_1  # the default
    assert sum(hierarchy(cfg, H3_1).stage_depths) == 5
    assert sum(hierarchy(cfg, H3_2).stage_depths) == 6
    h4 = hierarchy(cfg, H4)
    assert h4.seq_len // math.prod(h4.stage_factors) == 100  # frames after the last merge
    h2 = hierarchy(cfg, H2)
    assert list(h2.seq_len // np.cumprod(h2.stage_factors)) == [800, 400]


def test_seq_len_indivisible_by_the_stage_factors_is_refused():
    with pytest.raises(ConfigError, match="seq_len"):
        hierarchy(replace(ModelConfig(), seq_len=3204), H4)


@pytest.mark.parametrize(
    "field,value",
    [
        ("d_model", 0),
        ("proj_kernel", 4),
        ("seq_len", 0),
        ("stage_factors", (4, 0, 2)),
        ("stage_depths", (2, 2)),
        ("num_classes", 1),
        ("num_classes", 3),
        ("head_hidden", 0),
        ("seed", -3),
    ],
)
def test_config_validation_names_the_field(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        replace(ModelConfig(), **{field: value})




# ---------------------------------------------------------------------------
# building


def test_build_covers_all_components():
    cfg = ModelConfig()  # MSDW + GEGLU, hierarchy 4/2/2 with depths 2/2/1
    model = build_model(cfg)
    names = set(model.params)
    assert "projection.weight" in names and "projection.bias" in names
    for s in range(3):
        assert f"stage{s}.merge.weight" in names
    blocks = {n.split(".")[0] + "." + n.split(".")[1] for n in names if n.startswith("stage") and ".block" in n}
    assert len(blocks) == 5
    assert "final_norm.gamma" in names
    assert "head.fc1.weight" in names and "head.fc2.bias" in names
    # every block carries both norms and the MSDW/GEGLU tensors
    assert "stage0.block0.token.depthwise7" in names
    assert "stage2.block0.channel.w3" in names


def test_build_is_deterministic():
    cfg = ModelConfig(seed=42)
    a = build_model(cfg)
    b = build_model(cfg)
    for name in a.params:
        assert np.array_equal(a.params[name].value, b.params[name].value), name


# one block's layout under stage{s}.block{b}., written out independently of mixers
MSDW_GEGLU_BLOCK = [
    ("token_norm.gamma", (8,)), ("token_norm.beta", (8,)),
    ("token.depthwise7", (8, 1, 7)), ("token.depthwise1", (8, 1, 1)),
    ("channel_norm.gamma", (8,)), ("channel_norm.beta", (8,)),
    ("channel.w1", (8, 16)), ("channel.b1", (16,)),
    ("channel.w2", (8, 16)), ("channel.b2", (16,)),
    ("channel.w3", (16, 8)), ("channel.b3", (8,)),
]
ATTENTION_FFN_BLOCK = [
    ("token_norm.gamma", (8,)), ("token_norm.beta", (8,)),
    ("token.wq", (8, 8)), ("token.bq", (8,)),
    ("token.wk", (8, 8)), ("token.bk", (8,)),
    ("token.wv", (8, 8)), ("token.bv", (8,)),
    ("token.wo", (8, 8)), ("token.bo", (8,)),
    ("channel_norm.gamma", (8,)), ("channel_norm.beta", (8,)),
    ("channel.w_in", (8, 32)), ("channel.b_in", (32,)),
    ("channel.w_out", (32, 8)), ("channel.b_out", (8,)),
]


@pytest.mark.parametrize(
    "cfg,factors,depths,block",
    [
        (ModelConfig(), (4, 2, 2), (2, 2, 1), MSDW_GEGLU_BLOCK),
        (
            ModelConfig(
                stage_factors=(4, 2, 2, 2),
                stage_depths=(2, 2, 2, 1),
                token_mixer=TokenMixerKind.SELF_ATTENTION,
                channel_mixer=ChannelMixerKind.FFN,
            ),
            (4, 2, 2, 2),
            (2, 2, 2, 1),
            ATTENTION_FFN_BLOCK,
        ),
    ],
)
def test_param_shapes_order_is_pinned(cfg, factors, depths, block):
    """The order decides which Philox draws each parameter gets, so it decides
    the bytes of every checkpoint: it is pinned entry by entry."""
    want = [("projection.weight", (8, 1024, 3)), ("projection.bias", (8,))]
    for s, (factor, depth) in enumerate(zip(factors, depths)):
        want += [(f"stage{s}.merge.weight", (8, 8, factor)), (f"stage{s}.merge.bias", (8,))]
        for b in range(depth):
            want += [(f"stage{s}.block{b}.{name}", shape) for name, shape in block]
    want += [
        ("final_norm.gamma", (8,)), ("final_norm.beta", (8,)),
        ("head.fc1.weight", (8, 16)), ("head.fc1.bias", (16,)),
        ("head.fc2.weight", (16, 2)), ("head.fc2.bias", (2,)),
    ]
    assert list(param_shapes(cfg)) == want


def test_self_attention_ffn_scalar_count():
    cfg = replace(
        ModelConfig(),
        token_mixer=TokenMixerKind.SELF_ATTENTION,
        channel_mixer=ChannelMixerKind.FFN,
    )
    model = build_model(cfg)
    assert model.params.total_scalars(exclude_prefix="projection.") == 5090


@pytest.mark.parametrize("stages", [H3_1, H3_2], ids=["h3_1", "h3_2"])
@pytest.mark.parametrize("tk,ck", ALL_MIXER_COMBOS)
def test_structural_parity_with_analyzer(tk, ck, stages):
    cfg = hierarchy(ModelConfig(token_mixer=tk, channel_mixer=ck), stages)
    model = build_model(cfg)
    report = analysis.count_costs(cfg)
    assert model.params.total_scalars(exclude_prefix="projection.") == report.params_excl_projection
    assert model.params.total_scalars() == report.params_incl_projection


# ---------------------------------------------------------------------------
# forward


def test_forward_stage_shapes():
    model = build_model(ModelConfig())
    x = np.random.default_rng(0).standard_normal((3200, 1024))
    trace = []
    logits = model.forward(x, trace=trace)
    assert [shape for _, shape in trace] == [(800, 8), (400, 8), (200, 8)]
    assert logits.value.shape == (1, 2)


def test_forward_rejects_wrong_input_shape():
    model = build_model(SMALL)
    with pytest.raises(ShapeError, match=r"expected \(64, 16\)"):
        model.forward(np.zeros((65, 16)))


def test_all_parameters_zero_gives_zero_logits(rng):
    model = build_model(SMALL)
    for name in model.params:
        t = model.params[name]
        t.value = np.zeros_like(t.value)
    logits = model.forward(rng.standard_normal((64, 16)))
    assert np.array_equal(logits.value, np.zeros((1, 2)))


def test_forward_matches_straight_line_oracle_small(rng):
    for tk, ck in [
        (TokenMixerKind.MSDW, ChannelMixerKind.GEGLU),
        (TokenMixerKind.SELF_ATTENTION, ChannelMixerKind.FFN),
        (TokenMixerKind.ISC, ChannelMixerKind.POOL),
        (TokenMixerKind.POOL, ChannelMixerKind.IDENTITY),
        (TokenMixerKind.DW, ChannelMixerKind.GEGLU),
        (TokenMixerKind.IDENTITY, ChannelMixerKind.FFN),
    ]:
        cfg = replace(SMALL, token_mixer=tk, channel_mixer=ck, seed=9)
        model = build_model(cfg)
        x = rng.standard_normal((64, 16))
        got = model.forward(x).value
        expect = ref_forward(model, x)
        assert np.max(np.abs(got - expect)) < 1e-9, (tk, ck)


def test_forward_matches_straight_line_oracle_full_scale(rng):
    model = build_model(ModelConfig(seed=3))
    x = rng.standard_normal((3200, 1024))
    got = model.forward(x).value
    expect = ref_forward(model, x)
    assert np.max(np.abs(got - expect)) < 1e-9


def test_forward_matches_straight_line_oracle_on_a_short_record(rng):
    model = build_model(replace(SMALL, seed=9))
    x = rng.standard_normal((37, 16))
    got = model.forward(x).value
    expect = ref_forward(model, x)  # the oracle zero-pads to seq_len itself
    assert np.max(np.abs(got - expect)) < 1e-9


@pytest.mark.parametrize("stages", [H2, H4], ids=["h2", "h4"])
def test_forward_matches_the_oracle_on_a_short_record_under_the_h2_and_h4_presets(rng, stages):
    # the stage-0 merge is folded into the projection; later merges are not
    model = build_model(hierarchy(replace(SMALL, seed=9), stages))
    perturb_vectors(model, rng)
    x = rng.standard_normal((37, 16))
    assert np.max(np.abs(model.forward(x).value - ref_forward(model, x))) < 1e-9


def perturb_vectors(model, rng):
    """Give biases and norm affines random values; at their initial zeros
    and ones the zero tail of a short record stays a constant-zero row."""
    for name in model.params:
        t = model.params[name]
        if t.value.ndim == 1:
            t.value = t.value + 0.1 * rng.standard_normal(t.value.shape)


# (config, frames): one frame, one short of seq_len, exactly seq_len, and
# records whose last frames fall inside the projection's k = 5 window
SHORT_RECORDS = [
    (SMALL, 1),
    (SMALL, 63),
    (SMALL, 64),
    (replace(SMALL, proj_kernel=5), 62),
    (replace(SMALL, proj_kernel=5), 30),
    (ModelConfig(), 1999),
]


@pytest.mark.parametrize(
    "cfg,frames", SHORT_RECORDS, ids=[f"k{c.proj_kernel}-{n}of{c.seq_len}" for c, n in SHORT_RECORDS]
)
def test_forward_on_a_short_record_matches_its_zero_padded_copy(rng, cfg, frames):
    model = build_model(replace(cfg, seed=4))
    perturb_vectors(model, rng)
    x = rng.standard_normal((frames, cfg.input_dim))
    padded = np.concatenate([x, np.zeros((cfg.seq_len - frames, cfg.input_dim))])
    got = model.forward(x).value
    expect = model.forward(padded).value
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_end_to_end_gradients_on_a_short_record(rng):
    model = build_model(replace(SMALL, proj_kernel=5, seed=2))
    perturb_vectors(model, rng)
    x = rng.standard_normal((45, 16))

    def f():
        return cross_entropy(model.forward(x), 1)

    assert grad_check(f, list(model.params.values())) < 1e-4


@pytest.mark.parametrize("shape", [(0, 16), (64,), (32, 15), (32, 16, 1)])
def test_forward_rejects_inputs_that_are_not_a_frame_matrix(shape):
    with pytest.raises(ShapeError, match=r"expected \(64, 16\) or fewer frames"):
        build_model(SMALL).forward(np.zeros(shape))


def test_forward_is_deterministic(rng):
    model = build_model(ModelConfig(seed=5))
    x = rng.standard_normal((3200, 1024))
    assert np.array_equal(model.forward(x).value, model.forward(x).value)


def test_float32_record_and_its_float64_copy_give_identical_results(rng):
    model = build_model(replace(SMALL, seed=3))
    x32 = rng.standard_normal((40, 16)).astype(np.float32)
    results = []
    for x in (x32, x32.astype(np.float64)):
        model.params.zero_grad()
        logits = model.forward(x)
        cross_entropy(logits, 1).backward()
        results.append((logits.value, {name: t.grad for name, t in model.params.items()}))
    (logits32, grads32), (logits64, grads64) = results
    assert logits32.dtype == np.float64
    assert np.array_equal(logits32, logits64)
    for name, grad in grads32.items():
        assert grad.dtype == np.float64 and np.array_equal(grad, grads64[name]), name


def records_of_mixed_lengths(rng, cfg, count):
    """``count`` records from one frame up to ``seq_len``, the first and last of each length."""
    lengths = [1, cfg.seq_len, *rng.integers(1, cfg.seq_len + 1, size=max(count - 2, 0))][:count]
    return [rng.standard_normal((int(n), cfg.input_dim)).astype(np.float32) for n in lengths]


@pytest.mark.parametrize("batch", [1, 3, 8])
def test_batched_gradients_are_the_mean_of_per_sample_gradients(rng, batch):
    model = build_model(replace(SMALL, seed=6))
    perturb_vectors(model, rng)
    records = records_of_mixed_lengths(rng, SMALL, batch)
    labels = [int(v) for v in rng.integers(0, 2, size=batch)]

    mean = {name: np.zeros_like(t.value) for name, t in model.params.items()}
    for x, label in zip(records, labels):
        model.params.zero_grad()
        cross_entropy(model.forward(x), label).backward()
        for name, t in model.params.items():
            mean[name] += t.grad / batch
    model.params.zero_grad()
    cross_entropy(model.forward(records), labels).backward()
    for name, t in model.params.items():
        scale = max(np.max(np.abs(mean[name])), 1e-300)
        assert np.max(np.abs(t.grad - mean[name])) <= 1e-12 * scale, name


def test_batched_logits_match_per_record_logits_and_the_oracle(rng):
    model = build_model(replace(SMALL, seed=8))
    perturb_vectors(model, rng)
    records = records_of_mixed_lengths(rng, SMALL, 5)
    batched = model.forward(records).value
    assert batched.shape == (5, SMALL.num_classes)
    for row, x in zip(batched, records):
        alone = model.forward(x).value[0]
        assert np.max(np.abs(row - alone)) <= 1e-12 * np.max(np.abs(alone))
        assert np.max(np.abs(row - ref_forward(model, x)[0])) < 1e-9


def test_forward_rejects_an_empty_batch_and_a_bad_record_in_a_batch(rng):
    model = build_model(SMALL)
    with pytest.raises(ShapeError, match="at least one record"):
        model.forward([])
    with pytest.raises(ShapeError, match=r"expected \(64, 16\) or fewer frames"):
        model.forward([np.zeros((8, 16)), np.zeros((65, 16))])


def test_end_to_end_gradients_shrunken_model(rng):
    model = build_model(replace(SMALL, seed=1))
    x = rng.standard_normal((64, 16))

    def f():
        return cross_entropy(model.forward(x), 1)

    assert grad_check(f, list(model.params.values())) < 1e-4


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    model = build_model(replace(SMALL, seed=77))
    path = tmp_path / "model.hafc"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.cfg == model.cfg
    for name in model.params:
        value = loaded.params[name].value
        assert np.array_equal(value, model.params[name].value), name
        assert value.dtype == np.float64 and value.flags.writeable, name
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "again.hafc"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # and the loaded model predicts identically
    x = rng.standard_normal((64, 16))
    assert np.array_equal(loaded.forward(x).value, model.forward(x).value)


def test_checkpoint_bad_magic(tmp_path):
    model = build_model(SMALL)
    path = tmp_path / "model.hafc"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    model = build_model(SMALL)
    path = tmp_path / "model.hafc"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model = build_model(SMALL)
    path = tmp_path / "model.hafc"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage(tmp_path):
    model = build_model(SMALL)
    path = tmp_path / "model.hafc"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptionError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "dims", [(2**32 - 1, 2**32 - 1, 2**20), (2**20, 2**20, 2**10)], ids=["overflows-int64", "exabytes"]
)
def test_checkpoint_with_an_impossible_tensor_size_is_corrupt(tmp_path, dims):
    model = build_model(SMALL)
    path = tmp_path / "model.hafc"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"projection.weight") + len("projection.weight")
    assert raw[at] == 3
    raw[at + 1 : at + 13] = b"".join(d.to_bytes(4, "little") for d in dims)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError, match="values of projection.weight"):
        load_checkpoint(path)


def test_checkpoint_with_a_rank_numpy_cannot_hold_is_rejected(tmp_path):
    path = tmp_path / "model.hafc"
    save_checkpoint(build_model(SMALL), path)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"projection.bias") + len("projection.bias")
    assert raw[at] == 1
    raw[at] = 65  # the bias's zero values now read as zero dims: 0 values of rank 65
    path.write_bytes(bytes(raw))
    with pytest.raises((CorruptionError, FormatError)):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [("input_dim", 2**62), ("head_hidden", 2**40)])
def test_checkpoint_whose_config_asks_for_other_shapes_is_rejected_before_allocating(tmp_path, field, value):
    path = tmp_path / "model.hafc"
    save_checkpoint(build_model(SMALL), path)
    head, cfg_json, params = split_config_block(path.read_bytes())
    payload = {**json.loads(cfg_json), field: value}
    cfg_json = json.dumps(payload).encode("utf-8")
    path.write_bytes(head + len(cfg_json).to_bytes(4, "little") + cfg_json + params)
    with pytest.raises(FormatError, match=f"has shape .* expected .*{value}"):
        load_checkpoint(path)


def test_build_counts_the_attention_scores_against_numpy_size_limit():
    """Self-attention's (frames, frames) scores are checked, not only the
    (frames, channels) activations every mixer keeps."""
    cfg = replace(SMALL, seq_len=2**30, stage_factors=(1,), stage_depths=(1,))
    build_model(cfg)  # 2**30 frames of 16 channels fit
    with pytest.raises(ConfigError, match=r"stage0 attention scores \(1073741824, 1073741824\)"):
        build_model(replace(cfg, token_mixer=TokenMixerKind.SELF_ATTENTION))


def test_checkpoint_whose_activations_numpy_refuses_is_a_config_error(tmp_path):
    """The parameters fit, as the file holds them, but a record's frames at a
    stage do not: seq_len changes no parameter shape."""
    path = tmp_path / "model.hafc"
    save_checkpoint(build_model(replace(SMALL, stage_factors=(1,), stage_depths=(1,))), path)
    head, cfg_json, params = split_config_block(path.read_bytes())
    cfg_json = json.dumps({**json.loads(cfg_json), "seq_len": 2**70}).encode("utf-8")
    path.write_bytes(head + len(cfg_json).to_bytes(4, "little") + cfg_json + params)
    with pytest.raises(ConfigError, match=r"stage0 activations \(1180591620717411303424, 16\)"):
        load_checkpoint(path)


DEFAULT_CONFIG_JSON = (
    b'{"channel_mixer":"geglu","channel_residual":true,"d_model":8,"head_hidden":16,'
    b'"input_dim":1024,"num_classes":2,"proj_kernel":3,"seed":0,"seq_len":3200,'
    b'"stage_depths":[2,2,1],"stage_factors":[4,2,2],"token_mixer":"msdw"}'
)


def test_a_checkpoint_declaring_more_parameters_than_it_lists_is_refused_before_its_layout_is_built(
    tmp_path, monkeypatch
):
    """A file of a few hundred bytes whose config declares 10^12 blocks and
    which lists no parameter is a ``FormatError`` after one name of the
    layout. ``param_shapes`` is wrapped to raise past 10^6 names, and to
    refuse such a config outright where it builds its whole layout at once,
    so a loader that reads the layout whole fails here instead of hanging."""
    layout = model_module.param_shapes

    def bounded(cfg):
        if not inspect.isgeneratorfunction(layout) and sum(cfg.stage_depths) > 10**6:
            raise AssertionError(f"the whole layout of {sum(cfg.stage_depths)} blocks was asked for")
        for n, entry in enumerate(layout(cfg)):
            if n >= 10**6:
                raise AssertionError("more than 10^6 names of the layout were read")
            yield entry

    monkeypatch.setattr(model_module, "param_shapes", bounded)
    cfg_json = DEFAULT_CONFIG_JSON.replace(b'"stage_depths":[2,2,1]', b'"stage_depths":[2,2,%d]' % 10**12)
    path = tmp_path / "model.hafc"
    path.write_bytes(b"HAFC" + struct.pack("<II", 1, len(cfg_json)) + cfg_json + struct.pack("<I", 0))
    assert path.stat().st_size < 300
    with pytest.raises(FormatError, match="config declares more parameters than the file's 0"):
        load_checkpoint(path)


def split_config_block(raw: bytes) -> tuple[bytes, bytes, bytes]:
    """(magic + version, config JSON, parameters) of a checkpoint file."""
    cfg_len = int.from_bytes(raw[8:12], "little")
    return raw[:8], raw[12 : 12 + cfg_len], raw[12 + cfg_len :]


def with_a_repeated_parameter(raw: bytes, name: str) -> bytes:
    """``raw`` with a zero-valued copy of parameter ``name`` listed before it
    and the parameter count raised by one to cover it."""
    head, cfg_json, params = split_config_block(raw)
    count = int.from_bytes(params[:4], "little")
    encoded = name.encode("utf-8")
    start = params.index(len(encoded).to_bytes(2, "little") + encoded)
    at_dims = start + 2 + len(encoded) + 1
    ndim = params[at_dims - 1]
    dims = np.frombuffer(params[at_dims : at_dims + 4 * ndim], dtype="<u4")
    copy = params[start : at_dims + 4 * ndim] + bytes(8 * int(dims.prod()))
    return (
        head
        + len(cfg_json).to_bytes(4, "little")
        + cfg_json
        + (count + 1).to_bytes(4, "little")
        + params[4:start]
        + copy
        + params[start:]
    )


def test_checkpoint_that_lists_a_parameter_twice_is_corrupt(tmp_path):
    path = tmp_path / "model.hafc"
    save_checkpoint(build_model(SMALL), path)
    path.write_bytes(with_a_repeated_parameter(path.read_bytes(), "final_norm.beta"))
    with pytest.raises(CorruptionError, match="parameter final_norm.beta is listed twice"):
        load_checkpoint(path)


def with_a_value(raw: bytes, name: str, value: float) -> bytes:
    """``raw`` with the first value of parameter ``name`` set to ``value``."""
    encoded = name.encode("utf-8")
    at = raw.index(len(encoded).to_bytes(2, "little") + encoded) + 2 + len(encoded)
    at += 1 + 4 * raw[at]  # past the rank byte and the dims
    return raw[:at] + struct.pack("<d", value) + raw[at + 8 :]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_with_a_non_finite_value_is_corrupt(tmp_path, value):
    path = tmp_path / "model.hafc"
    save_checkpoint(build_model(SMALL), path)
    path.write_bytes(with_a_value(path.read_bytes(), "stage1.block0.token.depthwise7", value))
    with pytest.raises(CorruptionError, match="parameter stage1.block0.token.depthwise7 values include NaN"):
        load_checkpoint(path)


def test_checkpoint_config_block_of_the_default_model(tmp_path):
    path = tmp_path / "model.hafc"
    save_checkpoint(build_model(ModelConfig()), path)
    assert split_config_block(path.read_bytes())[1] == DEFAULT_CONFIG_JSON


@pytest.mark.parametrize(
    "edit",
    [
        {"drop": "proj_kernel"},
        {"extra": 1},
        {"token_mixer": "nope"},
        {"stage_factors": 4},
        {"stage_depths": [1, "1"]},
        {"seq_len": "64"},
        {"channel_residual": "false"},
        {"d_model": True},
    ],
    ids=lambda edit: next(iter(edit)),
)
def test_checkpoint_config_block_rejects_bad_fields(tmp_path, edit):
    path = tmp_path / "model.hafc"
    save_checkpoint(build_model(SMALL), path)
    head, cfg_json, params = split_config_block(path.read_bytes())
    payload = json.loads(cfg_json)
    payload.pop(edit.pop("drop", None), None)
    payload.update(edit)
    cfg_json = json.dumps(payload).encode("utf-8")
    path.write_bytes(head + len(cfg_json).to_bytes(4, "little") + cfg_json + params)
    with pytest.raises(FormatError, match="config"):
        load_checkpoint(path)
