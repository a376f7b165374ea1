import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafformer import analysis
from hafformer.analysis import (
    REFERENCE_COSTS,
    count_costs,
    emit_cost_table,
    round_half_away,
)
from hafformer.mixers import ALL_MIXER_COMBOS, ChannelMixerKind, TokenMixerKind
from hafformer.model import ModelConfig


def combo_cfg(tk, ck):
    return replace(ModelConfig(), token_mixer=tk, channel_mixer=ck)


SA_FFN = combo_cfg(TokenMixerKind.SELF_ATTENTION, ChannelMixerKind.FFN)
POOL_POOL = combo_cfg(TokenMixerKind.POOL, ChannelMixerKind.POOL)
MSDW_GEGLU = combo_cfg(TokenMixerKind.MSDW, ChannelMixerKind.GEGLU)


def test_rounding_is_half_away_from_zero():
    assert round_half_away(0.125) == 0.13
    assert round_half_away(0.115) == 0.12
    assert round_half_away(2.675) == 2.68
    assert round_half_away(1.444) == 1.44


def test_report_totals_equal_entry_sums():
    report = count_costs(SA_FFN)
    assert report.params_incl_projection == sum(e.params for e in report.entries)
    assert report.macs_incl_projection == sum(e.macs for e in report.entries)
    proj = [e for e in report.entries if e.component == "projection"]
    assert len(proj) == 1
    assert report.params_incl_projection - report.params_excl_projection == proj[0].params
    assert report.macs_incl_projection - report.macs_excl_projection == proj[0].macs


def test_param_examples():
    assert count_costs(SA_FFN).params_excl_projection == 5090
    assert count_costs(POOL_POOL).params_excl_projection == 890
    # closed-form MSDW row is 3.33K; published figure is 3.49K (documented residue)
    assert count_costs(MSDW_GEGLU).params_excl_projection == 3330


def test_mac_examples():
    report = count_costs(SA_FFN)
    assert abs(report.macs_excl_projection / 1e6 - 28.51) < 0.02
    assert abs(report.macs_incl_projection / 1e6 - 107.15) < 0.03
    assert abs(count_costs(MSDW_GEGLU).macs_excl_projection / 1e6 - 1.44) < 0.02


def test_projection_macs():
    proj = [e for e in count_costs(SA_FFN).entries if e.component == "projection"][0]
    assert proj.macs == 3200 * 1024 * 8 * 3
    assert abs(proj.macs / 1e6 - 78.64) < 0.01


def test_all_rows_within_reference_tolerances():
    for (tk, ck), (ref_params, ref_macs) in REFERENCE_COSTS.items():
        report = count_costs(combo_cfg(tk, ck))
        macs_m = report.macs_excl_projection / 1e6
        params_k = report.params_excl_projection / 1e3
        assert abs(macs_m - ref_macs) <= 0.02, (tk, ck, macs_m)
        if tk in (TokenMixerKind.MSDW, TokenMixerKind.DW):
            assert abs(params_k - ref_params) <= 0.20, (tk, ck, params_k)
        else:
            assert abs(params_k - ref_params) <= 0.005, (tk, ck, params_k)


def test_dw_rows_match_reference_exactly():
    # unlike MSDW, the depthwise-only rows carry no residue
    for ck, (ref_params, _) in (
        (ck, REFERENCE_COSTS[(TokenMixerKind.DW, ck)]) for ck in ChannelMixerKind
    ):
        report = count_costs(combo_cfg(TokenMixerKind.DW, ck))
        assert round_half_away(report.params_excl_projection / 1e3) == ref_params


# ---------------------------------------------------------------------------
# row-difference deltas (exact)


def rows_for(tk, ck):
    return count_costs(combo_cfg(tk, ck))


def test_channel_mixer_param_deltas_exact():
    for tk in TokenMixerKind:
        pool = rows_for(tk, ChannelMixerKind.POOL)
        assert (
            rows_for(tk, ChannelMixerKind.FFN).params_excl_projection
            - pool.params_excl_projection
            == 5 * 552
        )
        assert (
            rows_for(tk, ChannelMixerKind.GEGLU).params_excl_projection
            - pool.params_excl_projection
            == 5 * 424
        )


def test_channel_mixer_mac_deltas_exact():
    frames_total = 2 * 800 + 2 * 400 + 200
    for tk in TokenMixerKind:
        pool = rows_for(tk, ChannelMixerKind.POOL)
        assert (
            rows_for(tk, ChannelMixerKind.FFN).macs_excl_projection - pool.macs_excl_projection
            == 512 * frames_total
        )
        assert (
            rows_for(tk, ChannelMixerKind.GEGLU).macs_excl_projection
            - pool.macs_excl_projection
            == 384 * frames_total
        )
        assert 512 * frames_total == 1_331_200


def test_token_mixer_deltas_exact():
    frames_total = 2 * 800 + 2 * 400 + 200
    for ck in ChannelMixerKind:
        pool = rows_for(TokenMixerKind.POOL, ck)
        sa = rows_for(TokenMixerKind.SELF_ATTENTION, ck)
        assert sa.params_excl_projection - pool.params_excl_projection == 5 * 288
        assert (
            sa.macs_excl_projection - pool.macs_excl_projection
            == 256 * frames_total + 16 * (2 * 800**2 + 2 * 400**2 + 200**2)
        )
        isc = rows_for(TokenMixerKind.ISC, ck)
        assert isc.params_excl_projection - pool.params_excl_projection == 5 * 368
        assert isc.macs_excl_projection - pool.macs_excl_projection == 368 * frames_total
        dw = rows_for(TokenMixerKind.DW, ck)
        assert dw.macs_excl_projection - pool.macs_excl_projection == 56 * frames_total


def test_self_attention_mac_delta_value():
    sa = rows_for(TokenMixerKind.SELF_ATTENTION, ChannelMixerKind.POOL)
    pool = rows_for(TokenMixerKind.POOL, ChannelMixerKind.POOL)
    assert sa.macs_excl_projection - pool.macs_excl_projection == 26_905_600


# ---------------------------------------------------------------------------
# table emission


def test_emit_full_grid():
    table = emit_cost_table(list(ALL_MIXER_COMBOS))
    assert len(table.rows) == 24
    by_combo = {(r["token_mixer"], r["channel_mixer"]): r for r in table.rows}
    msdw_geglu = by_combo[("msdw", "geglu")]
    assert msdw_geglu["macs"] == pytest.approx(1.44, abs=0.02)
    # pool and identity token mixers cost the same in every column
    for ck in ChannelMixerKind:
        a = by_combo[("pool", ck.value)]
        b = by_combo[("identity", ck.value)]
        assert a["params"] == b["params"] and a["macs"] == b["macs"]
    # machine-readable rows carry exactly the documented keys
    assert set(msdw_geglu) == {
        "token_mixer",
        "channel_mixer",
        "params",
        "macs",
        "params_incl_projection",
        "macs_incl_projection",
    }
    json.dumps(table.rows)  # serializable as-is


def test_emit_warns_on_msdw_residue():
    table = emit_cost_table(list(ALL_MIXER_COMBOS))
    flagged = [w for w in table.warnings if w.startswith("msdw")]
    assert len(flagged) == 4
    assert all("residue" in w for w in flagged)
    assert not any(w.startswith("dw") for w in table.warnings)
    assert any("warning:" in line for line in table.text.splitlines())


def test_emit_empty_table():
    table = emit_cost_table([])
    assert table.rows == ()
    assert table.text == ""


def test_emit_skips_reference_check_off_configuration():
    cfg = replace(ModelConfig(), d_model=16, head_hidden=16)
    table = emit_cost_table(list(ALL_MIXER_COMBOS), cfg)
    assert table.warnings == ()


@pytest.mark.parametrize(
    "change,checked",
    [
        (
            dict(
                token_mixer=TokenMixerKind.POOL,
                channel_mixer=ChannelMixerKind.FFN,
                channel_residual=False,
                seed=5,
            ),
            True,
        ),
        (dict(input_dim=512), False),
        (dict(seq_len=1600), False),
        (dict(proj_kernel=5), False),
        (dict(stage_factors=(4, 2, 4)), False),
        (dict(stage_depths=(2, 2, 2)), False),
        (dict(head_hidden=8), False),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, dict) else None,
)
def test_reference_check_runs_only_at_the_reference_shape(change, checked):
    table = emit_cost_table(list(ALL_MIXER_COMBOS), replace(ModelConfig(), **change))
    assert bool(table.warnings) == checked


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=25, deadline=None)
@given(
    stage=st.integers(0, 2),
    combo=st.sampled_from(ALL_MIXER_COMBOS),
)
def test_deeper_stages_never_cost_less(stage, combo):
    tk, ck = combo
    cfg = combo_cfg(tk, ck)
    depths = list(cfg.stage_depths)
    depths[stage] += 1
    deeper = replace(cfg, stage_depths=tuple(depths))
    base = count_costs(cfg)
    more = count_costs(deeper)
    assert more.params_incl_projection >= base.params_incl_projection
    assert more.macs_incl_projection >= base.macs_incl_projection


def test_analyzer_runtime_under_one_second():
    import time

    t0 = time.perf_counter()
    emit_cost_table(list(ALL_MIXER_COMBOS))
    assert time.perf_counter() - t0 < 1.0
