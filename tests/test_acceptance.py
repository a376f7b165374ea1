"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The desk-scale learning criterion trains for the
full 80-epoch protocol twice (informative and degenerate difficulty), so
this module takes a few minutes.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from hafformer import analysis, mixers
from hafformer.analysis import REFERENCE_COSTS, count_costs, emit_cost_table
from hafformer.data import load_embedding, save_embedding
from hafformer.errors import CorruptionError, FormatError
from hafformer.mixers import ALL_MIXER_COMBOS, ChannelMixerKind, TokenMixerKind
from hafformer.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from hafformer.tensor import Tensor, grad_check, sum_all
from hafformer.training import cross_entropy

from test_cli import run_subprocess, strip_wall_ms, write_config
from test_tensor import _loss_builders


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {description}")


def combo_cfg(tk, ck, **kw):
    return replace(ModelConfig(), token_mixer=tk, channel_mixer=ck, **kw)


def test_criterion_1_cost_table_reproduction():
    with criterion(1, "cost table matches the reference grid within tolerance"):
        t0 = time.perf_counter()
        table = emit_cost_table(list(ALL_MIXER_COMBOS))
        elapsed = time.perf_counter() - t0
        rows = {(r["token_mixer"], r["channel_mixer"]): r for r in table.rows}
        spot_macs = {
            ("self_attention", "ffn"): 28.51,
            ("self_attention", "pool"): 27.18,
            ("pool", "ffn"): 1.60,
            ("isc", "ffn"): 2.56,
            ("msdw", "geglu"): 1.44,
        }
        for combo, ref in spot_macs.items():
            assert abs(rows[combo]["macs"] - ref) <= 0.02, combo
        for (tk, ck), (ref_params, ref_macs) in REFERENCE_COSTS.items():
            row = rows[(tk.value, ck.value)]
            assert abs(row["macs"] - ref_macs) <= 0.02, (tk, ck)
            if tk in (TokenMixerKind.MSDW, TokenMixerKind.DW):
                assert abs(row["params"] - ref_params) <= 0.20, (tk, ck)
            else:
                assert abs(row["params"] - ref_params) <= 0.005, (tk, ck)
        # the MSDW residue is emitted as a documented warning
        assert sum(w.startswith("msdw") for w in table.warnings) == 4
        assert elapsed < 1.0, f"cost table took {elapsed:.3f}s"


def test_criterion_2_projection_accounting():
    with criterion(2, "projection MACs 78.64M and combined total 107.15M"):
        report = count_costs(combo_cfg(TokenMixerKind.SELF_ATTENTION, ChannelMixerKind.FFN))
        projection = next(e for e in report.entries if e.component == "projection")
        assert abs(projection.macs / 1e6 - 78.64) <= 0.01
        assert abs(report.macs_incl_projection / 1e6 - 107.15) <= 0.03


def test_criterion_3_row_difference_oracles():
    with criterion(3, "per-block deltas across mixer pairs are exact"):
        frames_total = 2 * 800 + 2 * 400 + 200

        def totals(tk, ck):
            return count_costs(combo_cfg(tk, ck))

        for tk in TokenMixerKind:
            pool = totals(tk, ChannelMixerKind.POOL)
            ffn = totals(tk, ChannelMixerKind.FFN)
            geglu = totals(tk, ChannelMixerKind.GEGLU)
            assert ffn.params_excl_projection - pool.params_excl_projection == 5 * 552
            assert ffn.macs_excl_projection - pool.macs_excl_projection == 512 * frames_total
            assert geglu.params_excl_projection - pool.params_excl_projection == 5 * 424
            assert geglu.macs_excl_projection - pool.macs_excl_projection == 384 * frames_total
        for ck in ChannelMixerKind:
            pool = totals(TokenMixerKind.POOL, ck)
            assert (
                totals(TokenMixerKind.SELF_ATTENTION, ck).params_excl_projection
                - pool.params_excl_projection
                == 5 * 288
            )
            isc = totals(TokenMixerKind.ISC, ck)
            assert isc.params_excl_projection - pool.params_excl_projection == 5 * 368
            assert isc.macs_excl_projection - pool.macs_excl_projection == 368 * frames_total
            dw = totals(TokenMixerKind.DW, ck)
            assert dw.macs_excl_projection - pool.macs_excl_projection == 56 * frames_total


def test_criterion_4_structural_parity():
    with criterion(4, "allocator matches analyzer for 24 combos x 2 hierarchies; stage lengths exact"):
        for depths in ((2, 2, 1), (2, 2, 2)):  # H3-1 and H3-2, both with stage_factors 4,2,2
            for tk, ck in ALL_MIXER_COMBOS:
                cfg = combo_cfg(tk, ck, stage_factors=(4, 2, 2), stage_depths=depths)
                model = build_model(cfg)
                report = count_costs(cfg)
                assert (
                    model.params.total_scalars(exclude_prefix="projection.")
                    == report.params_excl_projection
                ), (depths, tk, ck)
        model = build_model(ModelConfig())
        trace = []
        model.forward(np.zeros((3200, 1024)), trace=trace)
        assert [shape for _, shape in trace] == [(800, 8), (400, 8), (200, 8)]


def test_criterion_5_gradient_correctness():
    with criterion(5, "primitives, all 24 blocks, and shrunken end-to-end pass FD checks in < 60s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        for name, (build, params) in _loss_builders(rng, 24).items():
            x = Tensor(rng.standard_normal((24, 8)))
            err = grad_check(lambda: build(x), [x, *params])
            assert err < 1e-4, f"primitive {name}: {err}"
        for tk, ck in ALL_MIXER_COMBOS:
            bp = mixers.random_block_params(tk, ck, 8, rng)
            x = Tensor(rng.standard_normal((16, 8)))

            def loss_fn(tk=tk, ck=ck, bp=bp, x=x):
                return sum_all(mixers.afformer_block(tk, ck, bp, x))

            err = grad_check(loss_fn, [x, *bp.values()])
            assert err < 1e-4, f"block {tk.value}+{ck.value}: {err}"
        shrunken = replace(ModelConfig(), seq_len=64, input_dim=16, seed=5)
        model = build_model(shrunken)
        x = rng.standard_normal((64, 16))
        err = grad_check(lambda: cross_entropy(model.forward(x), 1), list(model.params.values()))
        assert err < 1e-4, f"end-to-end: {err}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_6_identity_and_zero_cost_properties(rng):
    with criterion(6, "zero-parameter MSDW+GEGLU block is exact identity; Pool/Identity cost 0"):
        d = 8
        bp = {
            n: Tensor(np.ones(s) if n.endswith(".gamma") else np.zeros(s))
            for n, s in mixers.block_param_shapes(TokenMixerKind.MSDW, ChannelMixerKind.GEGLU, d).items()
        }
        x = rng.standard_normal((64, d))
        out = mixers.afformer_block(TokenMixerKind.MSDW, ChannelMixerKind.GEGLU, bp, Tensor(x))
        assert np.array_equal(out.value, x)
        for kind in (TokenMixerKind.POOL, TokenMixerKind.IDENTITY):
            assert analysis.token_mixer_param_count(kind, d) == 0
            assert analysis.token_mixer_macs(kind, d, 800) == 0
        for kind in (ChannelMixerKind.POOL, ChannelMixerKind.IDENTITY):
            assert analysis.channel_mixer_param_count(kind, d) == 0
            assert analysis.channel_mixer_macs(kind, d, 800) == 0


def test_criterion_7_determinism_across_processes(tmp_path):
    with criterion(7, "fixed seeds give bit-identical checkpoints, logs, and metrics"):
        cfg = write_config(
            tmp_path / "det.cfg", train_per_class=4, test_per_class=3, epochs=3, seq_len=256
        )
        metrics = []
        for name in ("first", "second"):
            out = tmp_path / name
            result = run_subprocess("train", "--config", str(cfg), "--out", str(out))
            assert result.returncode == 0, result.stderr
            result = run_subprocess("eval", "--config", str(cfg), "--out", str(out))
            assert result.returncode == 0, result.stderr
            metrics.append(result.stdout)
        first, second = tmp_path / "first", tmp_path / "second"
        assert (first / "checkpoint.hafc").read_bytes() == (second / "checkpoint.hafc").read_bytes()
        # wall_ms is wall-clock and necessarily differs; all other fields must match
        assert strip_wall_ms((first / "train_log.jsonl").read_text()) == strip_wall_ms(
            (second / "train_log.jsonl").read_text()
        )
        assert metrics[0] == metrics[1]


def test_criterion_8_desk_scale_learning(tmp_path):
    with criterion(8, "synthetic task learned to >= 90% held-out in < 10 min; degenerate stays at chance"):
        cfg = write_config(
            tmp_path / "learn.cfg",
            seq_len=512,
            seed=7,
            epochs=80,
            batch_size=8,
            lr=2e-3,
            weight_decay=1e-5,
            train_per_class=50,
            test_per_class=20,
            difficulty=1.0,
            data_seed=11,
        )
        out = tmp_path / "learn"
        t0 = time.perf_counter()
        result = run_subprocess("train", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        result = run_subprocess("eval", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        elapsed = time.perf_counter() - t0
        metrics = json.loads(result.stdout)
        assert metrics["accuracy"] >= 0.90, metrics
        assert elapsed < 600.0, f"train+eval took {elapsed:.0f}s"
        log = strip_wall_ms((out / "train_log.jsonl").read_text())
        assert len(log) == 80
        assert log[-1]["train_acc"] >= 0.95

        degenerate = write_config(
            tmp_path / "degenerate.cfg",
            seq_len=512,
            seed=7,
            epochs=80,
            batch_size=8,
            train_per_class=50,
            test_per_class=20,
            difficulty=1e-9,
            data_seed=21,
        )
        out2 = tmp_path / "degenerate"
        result = run_subprocess("train", "--config", str(degenerate), "--out", str(out2))
        assert result.returncode == 0, result.stderr
        result = run_subprocess("eval", "--config", str(degenerate), "--out", str(out2))
        assert result.returncode == 0, result.stderr
        chance = json.loads(result.stdout)
        assert 0.35 <= chance["accuracy"] <= 0.65, chance


def test_criterion_9_serialization(tmp_path, rng):
    with criterion(9, "bit-exact round trips; corrupted files raise the right errors and exit 2"):
        # embedding round trip
        features = rng.standard_normal((128, 1024)).astype(np.float32)
        from hafformer.data import EmbeddingRecord

        path = tmp_path / "r.hafe"
        save_embedding(path, EmbeddingRecord("speaker", features, 0))
        rec_id, loaded = load_embedding(path)
        assert np.array_equal(loaded.astype(np.float32), features)
        path2 = tmp_path / "r2.hafe"
        save_embedding(path2, EmbeddingRecord(rec_id, loaded, 0))
        assert path.read_bytes() == path2.read_bytes()

        # checkpoint round trip
        model = build_model(replace(ModelConfig(), seq_len=64, input_dim=16, seed=8))
        ckpt = tmp_path / "m.hafc"
        save_checkpoint(model, ckpt)
        reloaded = load_checkpoint(ckpt)
        ckpt2 = tmp_path / "m2.hafc"
        save_checkpoint(reloaded, ckpt2)
        assert ckpt.read_bytes() == ckpt2.read_bytes()

        # corrupted magic and truncation raise the dedicated classes
        bad = tmp_path / "bad.hafe"
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WAVE"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_embedding(bad)
        short = tmp_path / "short.hafc"
        short.write_bytes(ckpt.read_bytes()[:-32])
        with pytest.raises(CorruptionError):
            load_checkpoint(short)

        # and surface as exit code 2 through the CLI
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "checkpoint.hafc").write_bytes(ckpt.read_bytes()[:-32])
        cfg = write_config(tmp_path / "c.cfg", seq_len=64)
        result = run_subprocess("eval", "--config", str(cfg), "--out", str(run_dir))
        assert result.returncode == 2
        data_dir = tmp_path / "files"
        data_dir.mkdir()
        (data_dir / "manifest.csv").write_text("ghost,0\n", encoding="utf-8")
        (data_dir / "ghost.hafe").write_bytes(b"WAVE" + b"\x00" * 16)
        result = run_subprocess(
            "train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / "o")
        )
        assert result.returncode == 2
