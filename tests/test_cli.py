import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafformer import cli, data, mixers
from hafformer.errors import ConfigError
from hafformer.mixers import ChannelMixerKind, TokenMixerKind
from hafformer.model import Model, ModelConfig, build_model, save_checkpoint
from hafformer.tensor import Tensor

from test_model import with_a_repeated_parameter, with_a_value

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return cli.main(list(argv))


def run_subprocess(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hafformer.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_config(path: Path, **overrides) -> Path:
    base = {
        "token_mixer": "msdw",
        "channel_mixer": "geglu",
        "hierarchy": "h3_1",
        "seq_len": 256,
        "seed": 7,
        "epochs": 6,
        "batch_size": 8,
        "lr": 2e-3,
        "weight_decay": 1e-5,
        "data_mode": "synthetic",
        "train_per_class": 6,
        "test_per_class": 4,
        "difficulty": 1.0,
        "data_seed": 21,
    }
    base.update(overrides)
    lines = ["# test configuration"]
    lines += [f"{key} = {value}" for key, value in base.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# analyze


def test_analyze_single_combo(capsys):
    assert run_cli("analyze") == 0
    out = capsys.readouterr().out
    assert "msdw + geglu" in out
    assert "total excl. projection:" in out
    assert "total incl. projection:" in out


def test_analyze_self_attention_ffn_totals(tmp_path, capsys):
    cfg = write_config(tmp_path / "sa.cfg", token_mixer="self_attention", channel_mixer="ffn", seq_len=3200)
    assert run_cli("analyze", "--config", str(cfg)) == 0
    out = capsys.readouterr().out
    match = re.search(r"total incl\. projection: [\d.]+K params, ([\d.]+)M MACs", out)
    assert match, out
    assert abs(float(match.group(1)) - 107.15) <= 0.03


def test_analyze_all_combos_json(tmp_path, capsys):
    out_json = tmp_path / "table.json"
    assert run_cli("analyze", "--all-combos", "--json", str(out_json)) == 0
    out = capsys.readouterr().out
    rows = json.loads(out_json.read_text())
    assert len(rows) == 24
    by_combo = {(r["token_mixer"], r["channel_mixer"]): r for r in rows}
    assert abs(by_combo[("msdw", "geglu")]["macs"] - 1.44) <= 0.02
    assert by_combo[("self_attention", "ffn")]["params"] == 5.09
    assert "warning: msdw" in out


def test_unknown_config_key_is_line_numbered(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("seq_len = 3200\ndropout = 0.1\n", encoding="utf-8")
    assert run_cli("analyze", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert "dropout" in err
    assert ":2" in err


def test_bad_config_value(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("token_mixer = lstm\n", encoding="utf-8")
    assert run_cli("analyze", "--config", str(path)) == 2
    assert "token_mixer" in capsys.readouterr().err


def test_invalid_model_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", seq_len=250)  # not divisible by 16
    assert run_cli("analyze", "--config", str(cfg)) == 2
    assert "seq_len" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("train", "difficulty", 0),
        ("train", "difficulty", 1.5),
        ("synth", "train_per_class", 0),
        ("synth", "test_per_class", 0),
        ("train", "lr", "nan"),
        ("train", "lr", -1),
        ("train", "lr", 0),
        ("train", "weight_decay", "inf"),
        ("train", "weight_decay", -1e-5),
        ("train", "data_seed", -5),
    ],
)
def test_out_of_range_run_value_exits_2(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path / "bad.cfg", **{key: value})
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert key in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert run_cli("analyze", "--config", "/nonexistent/x.cfg") == 2


# one non-default value per field; a new field must be added here
MODEL_VALUES = dict(
    input_dim=16,
    seq_len=64,
    d_model=4,
    proj_kernel=5,
    stage_factors=(2, 4),
    stage_depths=(1, 3),
    token_mixer=TokenMixerKind.DW,
    channel_mixer=ChannelMixerKind.FFN,
    head_hidden=6,
    num_classes=2,  # its one legal value: labels are binary
    channel_residual=False,
    seed=9,
)
RUN_VALUES = dict(
    lr=0.01,
    weight_decay=0.0,
    batch_size=4,
    epochs=2,
    data_mode="files",
    train_per_class=3,
    test_per_class=2,
    difficulty=0.5,
    data_seed=5,
)


def config_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if isinstance(value, bool):
        return str(value).lower()
    return getattr(value, "value", str(value))


def test_every_config_field_is_a_key_with_a_typed_value(tmp_path):
    assert set(MODEL_VALUES) == {f.name for f in fields(ModelConfig)}
    assert set(RUN_VALUES) == {f.name for f in fields(cli.RunConfig)} - {"model"}
    path = tmp_path / "all.cfg"
    items = {**MODEL_VALUES, **RUN_VALUES}
    path.write_text("".join(f"{k} = {config_text(v)}\n" for k, v in items.items()), encoding="utf-8")
    run = cli.parse_run_config(path)
    assert run == cli.RunConfig(model=ModelConfig(**MODEL_VALUES), **RUN_VALUES)
    for key, value in MODEL_VALUES.items():
        assert type(getattr(run.model, key)) is type(value), key
    for key, value in RUN_VALUES.items():
        assert type(getattr(run, key)) is type(value), key


def test_hierarchy_key_expands_the_preset(tmp_path):
    path = tmp_path / "h.cfg"
    path.write_text("hierarchy = h2\n", encoding="utf-8")
    model = cli.parse_run_config(path).model
    assert (model.stage_factors, model.stage_depths) == ((4, 2), (2, 2))


@pytest.mark.parametrize(
    "line",
    ["channel_residual = yes", "stage_factors = 4,x", "lr = fast", "epochs = 2.5", "hierarchy = h9"],
)
def test_badly_typed_config_value_exits_2(tmp_path, capsys, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"# header\n{line}\n", encoding="utf-8")
    assert run_cli("analyze", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert ":2" in err and line.split()[0] in err


def readme_config_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration files") :]
    return section[section.index("```ini\n") + len("```ini\n") : section.index("```\n", 1)]


def test_readme_config_block_lists_every_key_at_its_default(tmp_path):
    block = readme_config_block()
    keys = [line.split("=")[0].strip() for line in block.splitlines() if "=" in line.split("#")[0]]
    assert sorted(keys) == sorted([*MODEL_VALUES, *RUN_VALUES, "hierarchy"])
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    assert cli.parse_run_config(path) == cli.RunConfig()


def test_readme_layout_lists_every_module():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Layout") :].split("```\n")[1]
    listed = re.findall(r"^  (\S+\.py) ", section, flags=re.MULTILINE)
    modules = Path(cli.__file__).parent.glob("*.py")
    assert sorted(listed) == sorted(module.name for module in modules)


def test_readme_haff_lines_parse():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("haff ")]
    assert len(lines) >= 7
    parser = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(capsys):
    assert run_cli("gradcheck") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "max_rel_err" in l]
    assert len(lines) == 25
    assert all(l.endswith("PASS") for l in lines)


def test_gradcheck_small_fits_its_length_to_the_stage_factors(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", seq_len=100, stage_factors="5,5", stage_depths="1,1")
    assert run_cli("gradcheck", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.count("PASS") == 25


@pytest.mark.parametrize("kernel,factors", [(5, "1,2"), (1, "5,5")])
def test_gradcheck_passes_at_the_edges_of_the_folded_projection(tmp_path, capsys, kernel, factors):
    # the widest kernel folded with a stage-0 merge of factor 1, and the
    # narrowest folded with one of factor 5
    cfg = write_config(
        tmp_path / "c.cfg", seq_len=100, proj_kernel=kernel, stage_factors=factors, stage_depths="1,1"
    )
    assert run_cli("gradcheck", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.count("PASS") == 25


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    real_gelu = mixers.gelu

    def broken_gelu(x):
        out = real_gelu(x)
        # corrupt the vector-Jacobian product
        return Tensor(out.value, out.parents, lambda g: (1.5 * out.vjps[0](g)[0] + 0.1,))

    monkeypatch.setattr(mixers, "gelu", broken_gelu)
    assert run_cli("gradcheck") == 1
    out = capsys.readouterr()
    assert "FAIL" in out.out
    assert "gradcheck failed" in out.err


# ---------------------------------------------------------------------------
# synth / train / eval


def test_synth_writes_datasets(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", train_per_class=2, test_per_class=1)
    out_dir = tmp_path / "data"
    assert run_cli("synth", "--config", str(cfg), "--out", str(out_dir)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"train": 4, "test": 2, "out": str(out_dir)}
    train_files = sorted(p.name for p in (out_dir / "train").iterdir())
    assert "manifest.csv" in train_files
    assert sum(name.endswith(".hafe") for name in train_files) == 4
    assert (out_dir / "test" / "manifest.csv").exists()


def test_train_and_eval_from_files(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.cfg",
        data_mode="files",
        train_per_class=3,
        test_per_class=2,
        epochs=2,
    )
    synth_cfg = write_config(tmp_path / "s.cfg", train_per_class=3, test_per_class=2)
    data_dir = tmp_path / "data"
    assert run_cli("synth", "--config", str(synth_cfg), "--out", str(data_dir)) == 0
    out_dir = tmp_path / "run"
    assert (
        run_cli("train", "--config", str(cfg), "--data", str(data_dir / "train"), "--out", str(out_dir))
        == 0
    )
    captured = capsys.readouterr().out.splitlines()
    summary = json.loads(captured[-1])
    assert summary["epochs"] == 2
    assert (out_dir / "checkpoint.hafc").exists()
    assert (out_dir / "train_log.jsonl").exists()
    assert (
        run_cli("eval", "--config", str(cfg), "--data", str(data_dir / "test"), "--out", str(out_dir))
        == 0
    )
    metrics = json.loads(capsys.readouterr().out)
    assert set(metrics) == {"accuracy", "f1", "confusion"}
    assert np.asarray(metrics["confusion"]).sum() == 4


def test_eval_perfect_memorization_fixture(tmp_path, capsys):
    """Evaluating on the memorized training data itself gives perfect metrics."""
    synth_cfg = write_config(tmp_path / "s.cfg")
    data_dir = tmp_path / "data"
    assert run_cli("synth", "--config", str(synth_cfg), "--out", str(data_dir)) == 0
    cfg = write_config(tmp_path / "c.cfg", data_mode="files", epochs=8)
    out_dir = tmp_path / "run"
    assert (
        run_cli("train", "--config", str(cfg), "--data", str(data_dir / "train"), "--out", str(out_dir))
        == 0
    )
    assert (
        run_cli("eval", "--config", str(cfg), "--data", str(data_dir / "train"), "--out", str(out_dir))
        == 0
    )
    metrics = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert metrics["accuracy"] == 1.0
    assert metrics["f1"] == 1.0


def test_train_files_mode_requires_data_dir(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", data_mode="files")
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "--data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_data_in_synthetic_mode_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.cfg", epochs=1, train_per_class=1, test_per_class=1)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    save_checkpoint(build_model(cli.parse_run_config(cfg).model), out_dir / cli.CHECKPOINT_NAME)
    missing = tmp_path / "nonexistent"
    assert run_cli(command, "--config", str(cfg), "--data", str(missing), "--out", str(out_dir)) == 2
    assert "data_mode" in capsys.readouterr().err


def test_a_train_that_fails_to_load_its_data_creates_no_out_directory(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / data.MANIFEST_NAME).write_text("r1,0\n", encoding="utf-8")
    cfg = write_config(tmp_path / "c.cfg", data_mode="files", epochs=1)
    out_dir = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--data", str(data_dir), "--out", str(out_dir)) == 2
    assert "r1.hafe does not exist" in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_with_three_classes_exits_2_before_creating_out(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", epochs=1, seq_len=512, num_classes=3)
    out_dir = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out_dir)) == 2
    assert "num_classes must be 2" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "lines,array",
    [
        ("proj_kernel = 9223372036854775809", "projection.weight"),
        ("head_hidden = 9223372036854775807", "head.fc1.weight"),
        ("d_model = 4611686018427387904", "projection.weight"),
        ("seq_len = 1180591620717411303424\nstage_factors = 1\nstage_depths = 1", "stage0 activations"),
        ("head_hidden = 9223372036854775807\ndata_mode = files", "head.fc1.weight"),  # before any data
    ],
    ids=["proj_kernel", "head_hidden", "d_model", "seq_len", "files-mode"],
)
def test_a_config_asking_for_an_array_numpy_refuses_exits_2_before_creating_out(tmp_path, capsys, lines, array):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{lines}\ntrain_per_class = 1\ntest_per_class = 1\nepochs = 1\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {array} (") and "more than numpy's limit" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "manifest", ["r1,0\nr2,1\nr1,1\n", "r1,0\nr2,2\n", "r1,0\nr2,\n"], ids=["repeated-id", "label-2", "no-label"]
)
def test_train_rejects_a_bad_manifest_with_exit_2(tmp_path, capsys, manifest):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for rec_id in ("r1", "r2"):
        record = data.EmbeddingRecord(rec_id, np.zeros((64, 1024), dtype=np.float32), 0)
        data.save_embedding(data_dir / f"{rec_id}.hafe", record)
    (data_dir / data.MANIFEST_NAME).write_text(manifest, encoding="utf-8")
    cfg = write_config(tmp_path / "c.cfg", data_mode="files", epochs=1)
    assert run_cli("train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / "o")) == 2
    assert "manifest.csv:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dims", [(2**32 - 1, 2**32 - 1, 2**20), (2**20, 2**20, 2**10)], ids=["overflows-int64", "exabytes"]
)
def test_eval_rejects_a_checkpoint_of_impossible_size_with_exit_2(tmp_path, capsys, dims):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    path = out_dir / cli.CHECKPOINT_NAME
    save_checkpoint(build_model(ModelConfig(seq_len=64, input_dim=16)), path)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"projection.weight") + len("projection.weight") + 1
    raw[at : at + 12] = b"".join(d.to_bytes(4, "little") for d in dims)
    path.write_bytes(bytes(raw))
    assert run_cli("eval", "--out", str(out_dir)) == 2
    assert "values of projection.weight" in capsys.readouterr().err


def test_eval_rejects_a_checkpoint_whose_config_asks_for_other_shapes_with_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    path = out_dir / cli.CHECKPOINT_NAME
    save_checkpoint(build_model(ModelConfig(seq_len=64, input_dim=16)), path)
    raw = path.read_bytes()
    cfg_len = int.from_bytes(raw[8:12], "little")
    cfg_json = raw[12 : 12 + cfg_len].replace(b'"input_dim":16,', b'"input_dim":%d,' % 2**62)
    path.write_bytes(raw[:8] + len(cfg_json).to_bytes(4, "little") + cfg_json + raw[12 + cfg_len :])
    assert run_cli("eval", "--out", str(out_dir)) == 2
    assert "parameter projection.weight has shape (8, 16, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_features_exit_2_before_training_or_evaluation(tmp_path, capsys, monkeypatch, command):
    """The NaN is in the last file the manifest lists, and no forward runs."""
    forwards = []
    monkeypatch.setattr(Model, "forward", lambda *args, **kwargs: forwards.append(args))
    cfg = write_config(tmp_path / "c.cfg", data_mode="files", epochs=1)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    save_checkpoint(build_model(cli.parse_run_config(cfg).model), out_dir / cli.CHECKPOINT_NAME)
    features = np.zeros((64, 1024), dtype=np.float32)
    features[5, 7] = np.nan
    records = (
        data.EmbeddingRecord("r1", np.zeros((64, 1024), dtype=np.float32), 0),
        data.EmbeddingRecord("r2", features, 1),
    )
    data.save_dataset(tmp_path / "data", data.Dataset(records, "test"))
    assert run_cli(command, "--config", str(cfg), "--data", str(tmp_path / "data"), "--out", str(out_dir)) == 2
    assert "r2.hafe: feature values include NaN or infinity" in capsys.readouterr().err
    assert (tmp_path / "data" / data.MANIFEST_NAME).read_text(encoding="utf-8").endswith("r2,1\n")
    assert forwards == []


def test_eval_rejects_an_embedding_of_impossible_size_with_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", data_mode="files")
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    save_checkpoint(build_model(cli.parse_run_config(cfg).model), out_dir / cli.CHECKPOINT_NAME)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    data.save_embedding(data_dir / "r1.hafe", data.EmbeddingRecord("r1", np.zeros((4, 1024), dtype=np.float32), 0))
    raw = bytearray((data_dir / "r1.hafe").read_bytes())
    raw[8:12] = (2**32 - 1).to_bytes(4, "little")
    (data_dir / "r1.hafe").write_bytes(bytes(raw))
    (data_dir / data.MANIFEST_NAME).write_text("r1,0\n", encoding="utf-8")
    assert run_cli("eval", "--config", str(cfg), "--data", str(data_dir), "--out", str(out_dir)) == 2
    assert "feature values" in capsys.readouterr().err


def write_embedding_with_raw_id(path: Path, raw_id: bytes) -> None:
    data.save_embedding(path, data.EmbeddingRecord("x", np.zeros((64, 1024), dtype=np.float32), 0))
    raw = path.read_bytes()  # 16 header bytes, the id length, the id "x", the values
    path.write_bytes(raw[:16] + len(raw_id).to_bytes(2, "little") + raw_id + raw[19:])


@pytest.mark.parametrize(
    "manifest,ids,message",
    [
        (b"r1,0\n", {"r1": b""}, "record id '' is not a plain file name"),
        (b"r1,0\n", {"r1": b"\xff"}, "id is not UTF-8"),
        (b"r1,0\n\xff,1\n", {"r1": b"r1"}, "manifest.csv: not UTF-8"),
        (b"r1,0\n../outside,1\n", {"r1": b"r1", "../outside": b"outside"}, "is not a plain file name"),
        (b"r1,0\nr2,1\n", {"r1": b"r1", "r2": b"r1"}, "holds record id 'r1', the manifest lists 'r2'"),
    ],
    ids=["empty-id", "id-not-utf8", "manifest-not-utf8", "id-escapes-the-directory", "id-differs-from-manifest"],
)
def test_train_rejects_bad_text_and_ids_in_a_dataset_with_exit_2(tmp_path, capsys, manifest, ids, message):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for name, raw_id in ids.items():
        write_embedding_with_raw_id(data_dir / f"{name}.hafe", raw_id)
    (data_dir / data.MANIFEST_NAME).write_bytes(manifest)
    cfg = write_config(tmp_path / "c.cfg", data_mode="files", epochs=1)
    assert run_cli("train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", ["id-too-long", "record-is-a-directory", "manifest-is-a-directory"])
def test_a_dataset_the_file_system_cannot_open_exits_2(tmp_path, capsys, case):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    manifest = data_dir / data.MANIFEST_NAME
    if case == "manifest-is-a-directory":
        manifest.mkdir()
    elif case == "record-is-a-directory":
        (data_dir / "r1.hafe").mkdir()
        manifest.write_text("r1,0\n", encoding="utf-8")
    else:
        manifest.write_text("r" * 300 + ",0\n", encoding="utf-8")
    cfg = write_config(tmp_path / "c.cfg", data_mode="files", epochs=1)
    assert run_cli("train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_rejects_a_parameter_name_that_is_not_utf8_with_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    path = out_dir / cli.CHECKPOINT_NAME
    save_checkpoint(build_model(ModelConfig(seq_len=64, input_dim=16)), path)
    path.write_bytes(path.read_bytes().replace(b"projection.weight", b"\xffrojection.weight"))
    assert run_cli("eval", "--out", str(out_dir)) == 2
    assert "parameter name is not UTF-8" in capsys.readouterr().err


def test_eval_rejects_a_checkpoint_that_lists_a_parameter_twice_with_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    path = out_dir / cli.CHECKPOINT_NAME
    save_checkpoint(build_model(ModelConfig(seq_len=64, input_dim=16)), path)
    path.write_bytes(with_a_repeated_parameter(path.read_bytes(), "final_norm.beta"))
    assert run_cli("eval", "--out", str(out_dir)) == 2
    assert "parameter final_norm.beta is listed twice" in capsys.readouterr().err


def test_eval_rejects_a_checkpoint_holding_nan_with_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    path = out_dir / cli.CHECKPOINT_NAME
    save_checkpoint(build_model(ModelConfig()), path)
    path.write_bytes(with_a_value(path.read_bytes(), "head.fc2.bias", float("nan")))
    assert run_cli("eval", "--out", str(out_dir)) == 2
    assert "parameter head.fc2.bias values include NaN or infinity" in capsys.readouterr().err


def test_eval_reads_the_data_at_the_width_of_the_checkpoint(tmp_path, capsys):
    """A 16-wide checkpoint against 1024-wide files is a DimensionError (exit
    2) whatever width the run config names; eval runs the checkpoint's model."""
    cfg = write_config(tmp_path / "c.cfg", data_mode="files")
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    save_checkpoint(build_model(ModelConfig(seq_len=64, input_dim=16)), out_dir / cli.CHECKPOINT_NAME)
    records = (data.EmbeddingRecord("r1", np.zeros((64, 1024), dtype=np.float32), 0),)
    data.save_dataset(tmp_path / "data", data.Dataset(records, "test"))
    assert run_cli("eval", "--config", str(cfg), "--data", str(tmp_path / "data"), "--out", str(out_dir)) == 2
    assert "r1.hafe: 1024 channels, expected 16" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "gradcheck", "synth", "train", "eval"])
def test_a_negative_seed_exits_2_before_any_work(tmp_path, capsys, command):
    out_dir = tmp_path / "o"
    argv = [command, "--config", str(write_config(tmp_path / "c.cfg", epochs=1)), "--seed", "-1"]
    if command == "eval":  # a checkpoint to evaluate, and a JSON path it must not write
        out_dir.mkdir()
        save_checkpoint(build_model(ModelConfig(seq_len=256)), out_dir / cli.CHECKPOINT_NAME)
        argv += ["--json", str(tmp_path / "metrics.json")]
    if command in ("synth", "train", "eval"):
        argv += ["--out", str(out_dir)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and captured.out == ""
    assert out_dir.exists() == (command == "eval")  # eval's was made above, with its checkpoint
    assert not (tmp_path / "metrics.json").exists()


def test_synth_with_another_input_width_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", data_mode="files", input_dim=16, seq_len=64)
    assert run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "data")) == 2
    assert "needs input_dim 1024, got 16" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "first,second",
    [("epochs = 3", "epochs = 5"), ("hierarchy = h2", "hierarchy = h4"), ("seed = 1", "seed = 1")],
)
def test_a_config_key_given_twice_exits_2_naming_both_lines(tmp_path, capsys, first, second):
    path = tmp_path / "twice.cfg"
    path.write_text(f"{first}\nseq_len = 64\n\n{second}\n", encoding="utf-8")
    assert run_cli("analyze", "--config", str(path)) == 2
    key = first.split()[0]
    assert f"twice.cfg:4: key {key!r} is also given on line 1" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seq_len = 64\n# \xff\n")
    assert run_cli("analyze", "--config", str(path)) == 2
    assert "not UTF-8" in capsys.readouterr().err


CONFIG_KEYS = [
    *(f.name for f in fields(ModelConfig)),
    *(f.name for f in fields(cli.RunConfig) if f.name != "model"),
    "hierarchy",
]
CONFIG_TEXT = st.characters(blacklist_characters="\n#=", blacklist_categories=("Cs",))
CONFIG_VALUES = st.one_of(
    st.integers(-(2**80), 2**80).map(str),
    st.lists(st.integers(-(2**80), 2**80), max_size=4).map(lambda v: ",".join(map(str, v))),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "-1e999", "1e-400", "", ",", "1,,2", "TRUE", "h4", "9" * 5000]),
    st.text(CONFIG_TEXT, max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_fuzzed_config_file_parses_to_a_run_config_or_a_config_error(tmp_path_factory, data):
    """``parse_run_config`` alone, over keys from the config fields,
    ``hierarchy`` and unknown names, with huge, negative, non-finite and empty
    values and bytes that are not UTF-8: it returns a ``RunConfig`` or raises
    a ``ConfigError``, nothing else."""
    lines = data.draw(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES), max_size=6))
    if data.draw(st.booleans()):
        unknown = data.draw(st.text(CONFIG_TEXT, max_size=8))
        lines.insert(data.draw(st.integers(0, len(lines))), (unknown, "1"))
    raw = "".join(f"{key} = {value}\n" for key, value in lines).encode("utf-8")
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"]))
        raw = raw[:at] + bad + raw[at:]
    path = tmp_path_factory.mktemp("config") / "fuzz.cfg"
    path.write_bytes(raw)
    try:
        run = cli.parse_run_config(path)
    except ConfigError:
        return
    assert isinstance(run, cli.RunConfig)


def test_synthetic_mode_with_another_input_width_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", input_dim=16, epochs=1)
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "needs input_dim 1024, got 16" in capsys.readouterr().err


def test_eval_on_an_unlabeled_record_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", data_mode="files")
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    save_checkpoint(build_model(cli.parse_run_config(cfg).model), out_dir / cli.CHECKPOINT_NAME)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for rec_id in ("r1", "r2"):
        record = data.EmbeddingRecord(rec_id, np.zeros((4, 1024), dtype=np.float32), 0)
        data.save_embedding(data_dir / f"{rec_id}.hafe", record)
    (data_dir / data.MANIFEST_NAME).write_text("r1,0\nr2,\n", encoding="utf-8")
    assert run_cli("eval", "--config", str(cfg), "--data", str(data_dir), "--out", str(out_dir)) == 2
    assert "manifest.csv:2: id 'r2' has no label" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_empty_manifest_exits_2_naming_it(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.cfg", data_mode="files", epochs=1)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    save_checkpoint(build_model(cli.parse_run_config(cfg).model), out_dir / cli.CHECKPOINT_NAME)
    manifest = tmp_path / "data" / data.MANIFEST_NAME
    manifest.parent.mkdir()
    manifest.write_text("", encoding="utf-8")
    assert run_cli(command, "--config", str(cfg), "--data", str(manifest.parent), "--out", str(out_dir)) == 2
    assert f"error: {manifest}: lists no records" in capsys.readouterr().err


@pytest.mark.parametrize("command,allocator", [("train", "build_model"), ("eval", "load_checkpoint")])
def test_running_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command, allocator):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 24.0 TiB")

    monkeypatch.setattr(cli, allocator, out_of_memory)
    cfg = write_config(tmp_path / "c.cfg", epochs=1, train_per_class=1)
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 24.0 TiB\n"


def test_eval_missing_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg")
    assert run_cli("eval", "--config", str(cfg), "--out", str(tmp_path / "empty")) == 2


def test_eval_writes_json(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", epochs=1)
    out_dir = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out_dir)) == 0
    json_path = tmp_path / "metrics.json"
    assert run_cli("eval", "--config", str(cfg), "--out", str(out_dir), "--json", str(json_path)) == 0
    capsys.readouterr()
    payload = json.loads(json_path.read_text())
    assert 0.0 <= payload["accuracy"] <= 1.0


def strip_wall_ms(log_text: str) -> list[dict]:
    entries = [json.loads(line) for line in log_text.splitlines()]
    for entry in entries:
        entry.pop("wall_ms")
    return entries


def test_repeated_training_runs_are_byte_identical(tmp_path):
    """Two independent processes with the same seeds produce the same bytes."""
    cfg = write_config(tmp_path / "c.cfg", train_per_class=4, epochs=3)
    for name in ("a", "b"):
        result = run_subprocess("train", "--config", str(cfg), "--out", str(tmp_path / name))
        assert result.returncode == 0, result.stderr
    ckpt_a = (tmp_path / "a" / "checkpoint.hafc").read_bytes()
    ckpt_b = (tmp_path / "b" / "checkpoint.hafc").read_bytes()
    assert ckpt_a == ckpt_b
    log_a = strip_wall_ms((tmp_path / "a" / "train_log.jsonl").read_text())
    log_b = strip_wall_ms((tmp_path / "b" / "train_log.jsonl").read_text())
    assert log_a == log_b


def test_seed_override_changes_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", train_per_class=2, epochs=1)
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
    assert run_cli("train", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "checkpoint.hafc").read_bytes() != (
        tmp_path / "b" / "checkpoint.hafc"
    ).read_bytes()


@pytest.mark.parametrize(
    "code,preset,warns",
    [
        ("import numpy, hafformer", False, True),
        ("import hafformer, numpy", False, False),
        ("import numpy, hafformer", True, False),
    ],
)
def test_thread_cap_warns_when_numpy_was_imported_first(code, preset, warns):
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["HAFF_THREADS"] = "1"
    if preset:
        env.update(dict.fromkeys(thread_vars, "1"))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    if warns:
        assert result.stderr.count("RuntimeWarning") == 1
        assert all(var in result.stderr for var in thread_vars)
        assert "no effect" in result.stderr
    else:
        assert result.stderr == ""


def test_a_fresh_import_exposes_the_submodules():
    code = (
        "import hafformer as h, types; "
        "print(all(isinstance(getattr(h, name), types.ModuleType) for name in "
        "('analysis', 'data', 'mixers', 'model', 'tensor', 'training')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"
