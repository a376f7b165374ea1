"""Model assembly: projection, merge hierarchy, mixer blocks, and head.

The network maps a (frames x input_dim) matrix of at most seq_len frames,
zero-extended to seq_len, or a batch of them, to class logits:
projection conv (same padding) down to ``d_model`` channels, then per stage
a strided merge conv followed by the stage's blocks, then a final layer
norm, temporal mean pooling, and a two-layer head. The projection and the
stage-0 merge are computed as one conv. Checkpoints are a
bit-exact binary format (magic ``HAFC``).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .data import _read_exact, _read_utf8
from .errors import ConfigError, CorruptionError, FormatError, ShapeError
from .mixers import ChannelMixerKind, TokenMixerKind, afformer_block, block_param_shapes
from .tensor import Tensor, add_bias, conv1d, gelu, layer_norm, matmul, mean_pool_time

CHECKPOINT_MAGIC = b"HAFC"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """The network's shape and initialization seed; each value is checked when built."""

    input_dim: int = 1024
    seq_len: int = 3200
    d_model: int = 8
    proj_kernel: int = 3
    stage_factors: tuple[int, ...] = (4, 2, 2)
    stage_depths: tuple[int, ...] = (2, 2, 1)
    token_mixer: TokenMixerKind = TokenMixerKind.MSDW
    channel_mixer: ChannelMixerKind = ChannelMixerKind.GEGLU
    head_hidden: int = 16
    num_classes: int = 2
    channel_residual: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.seq_len < 1:
            raise ConfigError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.d_model < 1:
            raise ConfigError(f"d_model must be >= 1, got {self.d_model}")
        if self.proj_kernel < 1 or self.proj_kernel % 2 == 0:
            raise ConfigError(f"proj_kernel must be odd and >= 1, got {self.proj_kernel}")
        if len(self.stage_factors) != len(self.stage_depths) or not self.stage_factors:
            raise ConfigError(
                f"stage_factors {self.stage_factors} and stage_depths {self.stage_depths} "
                "must be non-empty and equally long"
            )
        if any(f < 1 for f in self.stage_factors):
            raise ConfigError(f"stage_factors must all be >= 1, got {self.stage_factors}")
        if any(d < 1 for d in self.stage_depths):
            raise ConfigError(f"stage_depths must all be >= 1, got {self.stage_depths}")
        length = self.seq_len
        for i, f in enumerate(self.stage_factors):
            if length % f != 0:
                raise ConfigError(
                    f"seq_len {self.seq_len} is not divisible by the running product of "
                    f"stage_factors at stage {i} (length {length}, factor {f})"
                )
            length //= f
        if self.head_hidden < 1:
            raise ConfigError(f"head_hidden must be >= 1, got {self.head_hidden}")
        if self.num_classes != 2:
            # every loader gives labels 0 and 1; the field stays for the .hafc format
            raise ConfigError(f"num_classes must be 2 (labels are binary), got {self.num_classes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class HierarchyPreset(str, Enum):
    H2 = "h2"
    H3_1 = "h3_1"
    H3_2 = "h3_2"
    H4 = "h4"


_PRESET_STAGES: dict[HierarchyPreset, tuple[tuple[int, ...], tuple[int, ...]]] = {
    HierarchyPreset.H2: ((4, 2), (2, 2)),
    HierarchyPreset.H3_1: ((4, 2, 2), (2, 2, 1)),
    HierarchyPreset.H3_2: ((4, 2, 2), (2, 2, 2)),
    HierarchyPreset.H4: ((4, 2, 2, 2), (2, 2, 2, 1)),
}


def apply_preset(preset: HierarchyPreset, cfg: ModelConfig) -> ModelConfig:
    """Overwrite stage_factors/stage_depths from a hierarchy preset."""
    factors, depths = _PRESET_STAGES[HierarchyPreset(preset)]
    return replace(cfg, stage_factors=factors, stage_depths=depths)


class ParameterStore(dict[str, Tensor]):
    """Ordered name -> leaf Tensor map of a model's parameters."""

    def zero_grad(self) -> None:
        for t in self.values():
            t.grad = None

    def total_scalars(self, exclude_prefix: str | None = None) -> int:
        return sum(
            t.value.size
            for name, t in self.items()
            if exclude_prefix is None or not name.startswith(exclude_prefix)
        )


def _fan_in(shape: tuple[int, ...]) -> int:
    """Inputs per output of a linear weight (in, out) or a conv kernel (Cout, Cin, k)."""
    return shape[0] if len(shape) == 2 else shape[1] * shape[2]


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in declaration order: the one layout
    that ``build_model`` allocates and ``load_checkpoint`` checks files against."""
    d = cfg.d_model
    shapes: dict[str, tuple[int, ...]] = {
        "projection.weight": (d, cfg.input_dim, cfg.proj_kernel),
        "projection.bias": (d,),
    }
    block = block_param_shapes(cfg.token_mixer, cfg.channel_mixer, d)
    for s, (factor, depth) in enumerate(zip(cfg.stage_factors, cfg.stage_depths)):
        shapes[f"stage{s}.merge.weight"] = (d, d, factor)
        shapes[f"stage{s}.merge.bias"] = (d,)
        for b in range(depth):
            shapes.update({f"stage{s}.block{b}.{name}": shape for name, shape in block.items()})
    shapes["final_norm.gamma"] = (d,)
    shapes["final_norm.beta"] = (d,)
    shapes["head.fc1.weight"] = (d, cfg.head_hidden)
    shapes["head.fc1.bias"] = (cfg.head_hidden,)
    shapes["head.fc2.weight"] = (cfg.head_hidden, cfg.num_classes)
    shapes["head.fc2.bias"] = (cfg.num_classes,)
    return shapes


def _check_array_sizes(cfg: ModelConfig) -> None:
    """Raise ``ConfigError`` if an array the model of ``cfg`` would allocate
    is larger than numpy allows (``np.iinfo(np.intp).max`` bytes).

    The arrays are every parameter and, at each stage, one record's
    activations: frames by the widest channel count of a block, and frames
    by frames for self-attention's scores. Sizes are Python ints, so none
    wraps. A config that fails this is still valid, and ``count_costs``
    still counts it; only building or loading its model is refused.
    """
    limit = np.iinfo(np.intp).max
    block = block_param_shapes(cfg.token_mixer, cfg.channel_mixer, cfg.d_model)
    width = max(n for shape in block.values() for n in shape[:2])  # axes 0 and 1 are channel counts
    arrays = param_shapes(cfg)
    frames = cfg.seq_len
    for s, factor in enumerate(cfg.stage_factors):
        frames //= factor
        arrays[f"stage{s} activations"] = (frames, width)
        if cfg.token_mixer == TokenMixerKind.SELF_ATTENTION:
            arrays[f"stage{s} attention scores"] = (frames, frames)
    for name, shape in arrays.items():
        size = math.prod(shape) * np.dtype(np.float64).itemsize
        if size > limit:
            raise ConfigError(f"{name} {shape} would take {size} bytes, more than numpy's limit of {limit}")


def build_model(cfg: ModelConfig) -> "Model":
    """Allocate and initialize all float64 parameters for ``cfg``.

    Weights are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)] drawn from a
    counter-based Philox stream keyed by ``cfg.seed`` in declaration order;
    biases start at zero and norm affines at (1, 0), consuming no draws.
    A config asking for an array numpy cannot allocate is a ``ConfigError``
    before anything is allocated.
    """
    _check_array_sizes(cfg)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    store = ParameterStore()
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".gamma"):
            value = np.ones(shape)
        elif len(shape) == 1:
            value = np.zeros(shape)
        else:
            bound = 1.0 / math.sqrt(_fan_in(shape))
            value = rng.uniform(-bound, bound, size=shape)
        store[name] = Tensor(value)
    return Model(cfg, store)


@dataclass
class Model:
    """A built network: config and parameters."""

    cfg: ModelConfig
    params: ParameterStore

    def forward(self, x, trace: list | None = None) -> Tensor:
        """Run the network on one record or a batch; returns raw logits.

        ``x`` is one record, a (frames, input_dim) matrix, which gives
        (1, classes) logits, or a sequence of B such records, which gives
        (B, classes) logits in one graph. A record has 1 <= frames <=
        seq_len; the frames missing up to ``seq_len`` count as zero frames,
        so a short record and its zero-padded copy give the same logits (to
        rounding: the projection's GEMMs sum in an order that depends on the
        row count). The projection and the stage-0 merge run as one conv
        (``conv1d`` given the records and ``merge``), of width proj_kernel +
        stage_factors[0] - 1 and stride stage_factors[0]; the merges of the
        later stages are their own convs. Records may be float32: that conv
        casts each one's given frames to float64 a block at a time for its
        GEMMs, and only those frames are multiplied. Its output has
        ``seq_len / stage_factors[0]`` frames per record, the rows past the
        real frames being what zero frames give, and everything after it,
        the mean pool included, runs over all of them. ``trace``, when
        given, collects the (frames, channels) shape of a record after each
        stage.
        """
        cfg = self.cfg
        records = list(x) if isinstance(x, (list, tuple)) else [x]
        if not records:
            raise ShapeError("input: expected at least one record")
        for i, record in enumerate(records):
            records[i] = arr = np.asarray(record)
            if arr.ndim != 2 or arr.shape[1] != cfg.input_dim or not 1 <= arr.shape[0] <= cfg.seq_len:
                raise ShapeError(
                    f"input: expected {(cfg.seq_len, cfg.input_dim)} or fewer frames, got {arr.shape}"
                )
        store = self.params
        names = block_param_shapes(cfg.token_mixer, cfg.channel_mixer, cfg.d_model)
        merges = [
            (store[f"stage{s}.merge.weight"], store[f"stage{s}.merge.bias"])
            for s in range(len(cfg.stage_depths))
        ]
        h = conv1d(
            records, store["projection.weight"], store["projection.bias"], length=cfg.seq_len, merge=merges[0]
        )
        for s, depth in enumerate(cfg.stage_depths):
            if s:
                h = conv1d(h, *merges[s])
            for b in range(depth):
                params = {n: store[f"stage{s}.block{b}.{n}"] for n in names}
                h = afformer_block(
                    cfg.token_mixer, cfg.channel_mixer, params, h, channel_residual=cfg.channel_residual
                )
            if trace is not None:
                trace.append((f"stage{s}", h.value.shape[1:]))
        h = layer_norm(h, store["final_norm.gamma"], store["final_norm.beta"])
        h = mean_pool_time(h)
        h = gelu(add_bias(matmul(h, store["head.fc1.weight"]), store["head.fc1.bias"]))
        return add_bias(matmul(h, store["head.fc2.weight"]), store["head.fc2.bias"])


# ---------------------------------------------------------------------------
# checkpoint serialization


def _field_to_json(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def _config_to_dict(cfg: ModelConfig) -> dict:
    return {f.name: _field_to_json(getattr(cfg, f.name)) for f in fields(ModelConfig)}


def _config_from_dict(payload) -> ModelConfig:
    """Inverse of ``_config_to_dict``; each value must have its default's JSON type."""
    defaults = _config_to_dict(ModelConfig())
    got = set(payload) if isinstance(payload, dict) else set()
    if got != set(defaults):
        raise FormatError(
            f"config fields do not match: missing {sorted(set(defaults) - got)}, "
            f"unexpected {sorted(got - set(defaults))}"
        )
    values = {}
    for f in fields(ModelConfig):
        raw, like = payload[f.name], defaults[f.name]
        if type(raw) is not type(like) or (type(raw) is list and any(type(v) is not int for v in raw)):
            raise FormatError(f"config field {f.name}: expected {type(like).__name__}, got {raw!r}")
        try:
            values[f.name] = type(f.default)(raw)
        except ValueError as exc:
            raise FormatError(f"config field {f.name}: {exc}") from None
    return ModelConfig(**values)


def save_checkpoint(model: Model, path) -> None:
    """Write magic, version, config JSON, then parameters in name order."""
    cfg_json = json.dumps(
        _config_to_dict(model.cfg), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(cfg_json)))
        fh.write(cfg_json)
        names = sorted(model.params)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            encoded = name.encode("utf-8")
            value = model.params[name].value
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Inverse of ``save_checkpoint``; round-trips bit-exactly.

    The file's parameter names and shapes must be those that its config
    declares (``param_shapes``), checked before anything is allocated for
    the model; each parameter then gets its own writable float64 copy of
    the bytes read, which must be finite. A config whose activations numpy
    cannot allocate is a ``ConfigError``.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "config length"))
        try:
            payload = json.loads(_read_utf8(fh, cfg_len, path, "config"))
        except json.JSONDecodeError as exc:
            raise CorruptionError(f"{path}: unreadable config block: {exc}") from None
        cfg = _config_from_dict(payload)
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path, "parameter count"))
        values: dict[str, tuple[tuple[int, ...], bytes]] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, path, "name length"))
            name = _read_utf8(fh, name_len, path, "parameter name")
            if name in values:
                raise CorruptionError(f"{path}: parameter {name} is listed twice")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path, "rank"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, "shape"))
            values[name] = shape, _read_exact(fh, 8 * math.prod(shape), path, f"values of {name}")
        if fh.read(1):
            raise CorruptionError(f"{path}: trailing bytes after last parameter")

    expected = param_shapes(cfg)
    if set(values) != set(expected):
        raise FormatError(
            f"{path}: parameter names do not match the config: "
            f"missing {sorted(set(expected) - set(values))}, "
            f"unexpected {sorted(set(values) - set(expected))}"
        )
    store = ParameterStore()
    for name, want in expected.items():
        shape, raw = values[name]
        if shape != want:
            raise FormatError(f"{path}: parameter {name} has shape {shape}, expected {want}")
        value = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(value).all():
            raise CorruptionError(f"{path}: parameter {name} values include NaN or infinity")
        store[name] = Tensor(value)
    _check_array_sizes(cfg)  # the parameters fit, as the file held them; the activations may not
    return Model(cfg, store)
