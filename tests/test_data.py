import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hafformer import data as data_module
from hafformer.data import (
    BAND_ENERGY_THRESHOLD,
    CUE_CHANNELS,
    FINITE_CHECK_VALUES,
    Dataset,
    EmbeddingRecord,
    band_energy_score,
    load_dataset,
    load_embedding,
    load_manifest,
    oracle_classify,
    pad_or_truncate,
    save_dataset,
    save_embedding,
    save_manifest,
    synthesize_dataset,
)
from hafformer.errors import ConfigError, CorruptionError, DimensionError, FormatError
from hafformer.mixers import ChannelMixerKind, TokenMixerKind
from hafformer.model import ModelConfig, build_model, load_checkpoint, save_checkpoint


# ---------------------------------------------------------------------------
# file format


def test_load_well_formed_file(tmp_path, rng):
    path = tmp_path / "rec.hafe"
    features = rng.standard_normal((2, 1024)).astype(np.float32)
    save_embedding(path, EmbeddingRecord("speaker-01", features, 0))
    rec_id, loaded = load_embedding(path)
    assert rec_id == "speaker-01"
    assert loaded.shape == (2, 1024)
    assert loaded.dtype == np.float32
    assert loaded.tobytes() == features.tobytes()  # bit-equal, no upcast


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    rows=st.integers(1, 40),
    cols=st.integers(1, 64),
)
def test_round_trip_is_bit_exact(tmp_path_factory, seed, rows, cols):
    path = tmp_path_factory.mktemp("rt") / "x.hafe"
    features = np.random.default_rng(seed).standard_normal((rows, cols)).astype(np.float32)
    save_embedding(path, EmbeddingRecord(f"r{seed}", features, 0))
    rec_id, loaded = load_embedding(path, expected_cols=cols)
    assert np.array_equal(loaded.astype(np.float32), features)
    # saving what was loaded reproduces the same bytes
    path2 = path.with_name("y.hafe")
    save_embedding(path2, EmbeddingRecord(rec_id, loaded, 0))
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic_names_the_file(tmp_path):
    path = tmp_path / "bad.hafe"
    save_embedding(path, EmbeddingRecord("x", np.zeros((2, 4), dtype=np.float32), 0))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad.hafe"):
        load_embedding(path, expected_cols=4)


def test_bad_version(tmp_path):
    path = tmp_path / "v.hafe"
    save_embedding(path, EmbeddingRecord("x", np.zeros((2, 4), dtype=np.float32), 0))
    raw = bytearray(path.read_bytes())
    raw[4:8] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_embedding(path, expected_cols=4)


def test_cols_mismatch(tmp_path):
    path = tmp_path / "c.hafe"
    save_embedding(path, EmbeddingRecord("x", np.zeros((2, 512), dtype=np.float32), 0))
    with pytest.raises(DimensionError, match="512"):
        load_embedding(path)  # default expects 1024
    assert load_embedding(path, expected_cols=512)[1].shape == (2, 512)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.hafe"
    save_embedding(path, EmbeddingRecord("x", np.ones((4, 8), dtype=np.float32), 0))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CorruptionError):
        load_embedding(path, expected_cols=8)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "g.hafe"
    save_embedding(path, EmbeddingRecord("x", np.ones((4, 8), dtype=np.float32), 0))
    path.write_bytes(path.read_bytes() + b"!")
    with pytest.raises(CorruptionError, match="trailing"):
        load_embedding(path, expected_cols=8)


@pytest.mark.parametrize(
    "raw_id,message",
    [(b"", "record id '' is not a plain file name"), (b"a/b", "'a/b' is not a plain"), (b"\xffx", "id is not UTF-8")],
)
def test_load_rejects_an_id_that_is_not_a_utf8_file_name(tmp_path, raw_id, message):
    path = tmp_path / "id.hafe"
    save_embedding(path, EmbeddingRecord("x", np.ones((2, 4), dtype=np.float32), 0))
    raw = path.read_bytes()
    header, payload = raw[:16], raw[16 + 2 + 1 :]  # drop the id length and the one-byte id
    path.write_bytes(header + len(raw_id).to_bytes(2, "little") + raw_id + payload)
    with pytest.raises(CorruptionError, match=message):
        load_embedding(path, expected_cols=4)


def test_a_file_that_shrinks_after_its_header_is_read_is_corruption(tmp_path, monkeypatch):
    path = tmp_path / "rec.hafe"
    save_embedding(path, EmbeddingRecord("rec", np.ones((2, 4), dtype=np.float32), 0))
    path.write_bytes(path.read_bytes()[:-4])
    # the header's size check sees the size that was written, the read finds one value less
    fstat = os.fstat
    written = SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 4))
    monkeypatch.setattr(data_module, "os", written)
    with pytest.raises(CorruptionError, match=r"rec\.hafe: truncated while reading feature values"):
        load_embedding(path, expected_cols=4)


def test_load_rejects_a_row_count_beyond_the_file(tmp_path):
    path = tmp_path / "huge.hafe"
    save_embedding(path, EmbeddingRecord("x", np.zeros((2, 1024), dtype=np.float32), 0))
    raw = bytearray(path.read_bytes())
    raw[8:12] = (2**32 - 1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError, match="feature values needs 17592186040320 bytes"):
        load_embedding(path)


def test_loading_a_dataset_allocates_about_its_payload(tmp_path, rng):
    records = tuple(
        EmbeddingRecord(f"r{i}", rng.standard_normal((rows, 1024)).astype(np.float32), 0)
        for i, rows in enumerate((300, 500, 700))
    )
    save_dataset(tmp_path, Dataset(records, "test"))
    payload = sum(r.features.nbytes for r in records)
    tracemalloc.start()
    try:
        loaded = load_dataset(tmp_path, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * payload  # a float64 copy of each record would be 2x on its own
    assert all(r.features.dtype == np.float32 for r in loaded.records)


def test_loading_a_dataset_holds_one_record_at_a_time(tmp_path, rng):
    """``load_dataset`` reads every record, but drops each before the next:
    three times the files must not raise the peak by a record."""
    record_bytes = 256 * 1024 * 4

    def peak(n: int) -> int:
        directory = tmp_path / str(n)
        records = tuple(
            EmbeddingRecord(f"r{i}", rng.standard_normal((256, 1024), dtype=np.float32), i % 2)
            for i in range(n)
        )
        save_dataset(directory, Dataset(records, "test"))
        del records
        tracemalloc.start()
        try:
            load_dataset(directory, "test")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12) < peak(4) + record_bytes


def test_saving_a_record_writes_from_its_own_buffer(tmp_path, rng):
    """A 3200x1024 float32 record (13.1 MB) is written without a copy of its values."""
    record = EmbeddingRecord("r", rng.standard_normal((3200, 1024), dtype=np.float32), 0)
    tracemalloc.start()
    try:
        save_embedding(tmp_path / "r.hafe", record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20)
    _, loaded = load_embedding(tmp_path / "r.hafe")
    assert np.array_equal(loaded, record.features)


@pytest.mark.parametrize("rows", [63, 64, 65])  # 64 rows of 1024 channels are one block
@pytest.mark.parametrize("at", ["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_every_block_of_values_is_read_and_checked(tmp_path, rng, rows, at, value):
    """Both ends of the payload are read and checked, whether the last block
    is partial, whole, or one row long; clean values round-trip bit-exactly
    into a read-only array."""
    assert 64 * 1024 == FINITE_CHECK_VALUES
    features = rng.standard_normal((rows, 1024), dtype=np.float32)
    clean, bad = tmp_path / "clean", tmp_path / "bad"
    save_dataset(clean, Dataset((EmbeddingRecord("rec", features, 0),)))
    _, loaded = load_embedding(clean / "rec.hafe")
    assert loaded.tobytes() == features.tobytes()
    assert not loaded.flags.writeable
    (record,) = load_dataset(clean).records
    assert record.features.tobytes() == features.tobytes()
    assert not record.features.flags.writeable

    features.reshape(-1)[0 if at == "first" else -1] = value
    save_dataset(bad, Dataset((EmbeddingRecord("rec", features, 0),)))
    with pytest.raises(CorruptionError) as direct:
        load_embedding(bad / "rec.hafe")
    assert str(direct.value).endswith("rec.hafe: feature values include NaN or infinity")
    with pytest.raises(CorruptionError) as via_dataset:
        load_dataset(bad)
    assert str(via_dataset.value) == str(direct.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_features(tmp_path, value):
    features = np.ones((3, 4), dtype=np.float32)
    features[1, 2] = value
    path = tmp_path / "bad.hafe"
    save_embedding(path, EmbeddingRecord("bad", features, 0))
    with pytest.raises(CorruptionError, match=r"bad\.hafe: feature values include NaN or infinity"):
        load_embedding(path, expected_cols=4)


def damaged(raw: bytes):
    """``raw`` with one byte replaced, or cut short: never longer, so no
    header can ask for more than the file holds."""
    replaced = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)).map(
        lambda at: raw[: at[0]] + bytes([at[1]]) + raw[at[0] + 1 :]
    )
    return st.one_of(replaced, st.integers(0, len(raw) - 1).map(lambda n: raw[:n]))


def write_small_embedding(path):
    save_embedding(path, EmbeddingRecord("rec", np.arange(12, dtype=np.float32).reshape(3, 4), 0))


# every parameter has one or two values, so most of the file is headers and names
TINY_MODEL = ModelConfig(
    input_dim=2,
    seq_len=4,
    d_model=1,
    proj_kernel=1,
    stage_factors=(2,),
    stage_depths=(1,),
    token_mixer=TokenMixerKind.IDENTITY,
    channel_mixer=ChannelMixerKind.IDENTITY,
    head_hidden=1,
)


@pytest.mark.parametrize(
    "write,load",
    [
        (write_small_embedding, lambda path: load_embedding(path, expected_cols=4)),
        (lambda path: save_checkpoint(build_model(TINY_MODEL), path), load_checkpoint),
    ],
    ids=["hafe", "hafc"],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_damaged_file_raises_only_documented_errors(tmp_path_factory, write, load, data):
    path = tmp_path_factory.mktemp("damaged") / "file"
    write(path)
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    try:
        load(path)
    except (FormatError, CorruptionError, DimensionError, ConfigError):
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_dataset_rejects_what_load_embedding_rejects(tmp_path_factory, data):
    """``load_dataset`` rejects a file as ``load_embedding`` does, error for
    error; a file it accepts reads back as ``load_embedding`` reads it."""
    directory = tmp_path_factory.mktemp("checked")
    path = directory / "rec.hafe"
    write_small_embedding(path)
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    (directory / "manifest.csv").write_text("rec,0\n", encoding="utf-8")
    try:
        want_id, want = load_embedding(path, expected_cols=4)
    except (FormatError, CorruptionError, DimensionError) as exc:
        with pytest.raises(type(exc)) as got:
            load_dataset(directory, "train", expected_cols=4)
        assert str(got.value) == str(exc)
        return
    if want_id != "rec":
        with pytest.raises(CorruptionError, match="the manifest lists 'rec'"):
            load_dataset(directory, "train", expected_cols=4)
        return
    (record,) = load_dataset(directory, "train", expected_cols=4).records
    assert record.features.tobytes() == want.tobytes()


FUZZ_RECORDS = (("a0", 0), ("b1", 1), ("a1", 1))  # ids one byte apart, so damage can swap them


def write_fuzz_dataset(directory):
    for rec_id, label in FUZZ_RECORDS:
        save_embedding(directory / f"{rec_id}.hafe", EmbeddingRecord(rec_id, np.ones((2, 4), dtype=np.float32), 0))
    return "".join(f"{rec_id},{label}\n" for rec_id, label in FUZZ_RECORDS).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), split=st.sampled_from(["train", "test"]))
def test_a_damaged_manifest_raises_only_documented_errors(tmp_path_factory, data, split):
    directory = tmp_path_factory.mktemp("manifest")
    raw = write_fuzz_dataset(directory)
    (directory / "manifest.csv").write_bytes(data.draw(damaged(raw)))
    try:
        load_dataset(directory, split, expected_cols=4)
    except (FormatError, CorruptionError, DimensionError, ConfigError):
        pass


def test_a_manifest_that_lists_a_missing_file_is_a_format_error(tmp_path):
    write_fuzz_dataset(tmp_path)
    (tmp_path / "manifest.csv").write_text("a0,0\nb0,1\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"manifest\.csv: lists 'b0', but .*b0\.hafe does not exist"):
        load_dataset(tmp_path, "train", expected_cols=4)


@settings(max_examples=400, deadline=None)
@given(rec_id=st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
def test_any_record_id_a_record_accepts_survives_a_save_and_load(tmp_path_factory, rec_id):
    try:
        record = EmbeddingRecord(rec_id, np.ones((2, 4), dtype=np.float32), 1)
    except ValueError:
        assume(False)
    directory = tmp_path_factory.mktemp("ids")
    try:
        save_dataset(directory, Dataset((record,), "train"))
    except OSError:  # a name the file system refuses, such as one too long
        assume(False)
    (loaded,) = load_dataset(directory, "train", expected_cols=4).records
    assert loaded.id == rec_id


def test_manifest_round_trip(tmp_path):
    ds = Dataset(
        (
            EmbeddingRecord("a", np.zeros((1, 4), dtype=np.float32), 0),
            EmbeddingRecord("b", np.zeros((1, 4), dtype=np.float32), 1),
        ),
        "train",
    )
    path = tmp_path / "manifest.csv"
    save_manifest(path, ds)
    assert path.read_bytes() == b"a,0\nb,1\n"
    assert load_manifest(path) == {"a": 0, "b": 1}


def test_a_manifest_line_without_a_label_is_a_format_error(tmp_path):
    for rec_id in ("a", "b"):
        record = EmbeddingRecord(rec_id, np.zeros((1, 1024), dtype=np.float32), 0)
        save_embedding(tmp_path / f"{rec_id}.hafe", record)
    (tmp_path / "manifest.csv").write_text("a,0\nb,\n", encoding="utf-8")
    for split in ("train", "test"):
        with pytest.raises(FormatError, match=r"manifest\.csv:2: id 'b' has no label"):
            load_dataset(tmp_path, split)


def test_manifest_malformed_line(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("a,0\nnonsense\n", encoding="utf-8")
    with pytest.raises(FormatError, match=":2"):
        load_manifest(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("r1,0\nr2,1\nr1,1\n", r":3: id 'r1' is listed twice"),
        ("a,0\nb,2\n", r":2: label '2' is not 0 or 1"),
        ("a,0\n\nb,-1\n", r":3: label '-1' is not 0 or 1"),
        # only the text save_manifest writes: int() would take each of these
        ("a,0\nb, 1\n", r":2: label ' 1' is not 0 or 1"),
        ("a,0\nb,1 \n", r":2: label '1 ' is not 0 or 1"),
        ("a,0\nb,+1\n", r":2: label '\+1' is not 0 or 1"),
        ("a,0\nb,01\n", r":2: label '01' is not 0 or 1"),
        ("a,0\nb,0_0\n", r":2: label '0_0' is not 0 or 1"),
        ("a,0\nb,\uff11\n", r":2: label '\uff11' is not 0 or 1"),  # full-width 1
        ("a,0\r\nb,1\r\n", r":1: label '0\\r' is not 0 or 1"),  # CRLF lines
    ],
)
def test_manifest_rejects_repeated_ids_and_labels_outside_0_1(tmp_path, text, message):
    path = tmp_path / "manifest.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=message):
        load_manifest(path)


@pytest.mark.parametrize("rec_id", ["../outside", "a/b", "a\\b", ".", "..", "a\0b"])
def test_manifest_ids_must_be_plain_file_names(tmp_path, rec_id):
    path = tmp_path / "manifest.csv"
    path.write_text(f"a,0\n{rec_id},1\n", encoding="utf-8")
    with pytest.raises(FormatError, match=":2: id .* is not a plain file name"):
        load_manifest(path)
    # nor can a record carry one, so save_dataset never writes outside its directory
    with pytest.raises(ValueError, match="not a plain file name"):
        EmbeddingRecord(rec_id, np.zeros((1, 4), dtype=np.float32), 0)


def test_manifest_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_bytes(b"a,0\n\xff,1\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        load_manifest(path)


def test_load_dataset_requires_the_file_id_to_match_the_manifest(tmp_path):
    features = np.zeros((1, 1024), dtype=np.float32)
    save_embedding(tmp_path / "a.hafe", EmbeddingRecord("a", features, 0))
    save_embedding(tmp_path / "b.hafe", EmbeddingRecord("a", features, 0))
    (tmp_path / "manifest.csv").write_text("a,0\nb,1\n", encoding="utf-8")
    with pytest.raises(CorruptionError, match="b.hafe: holds record id 'a', the manifest lists 'b'"):
        load_dataset(tmp_path, "train")


def test_dataset_directory_round_trip(tmp_path, rng):
    ds = synthesize_dataset(2, seed=5, difficulty=1.0)
    save_dataset(tmp_path / "d", ds)
    loaded = load_dataset(tmp_path / "d", "train")
    assert {r.id for r in loaded.records} == {r.id for r in ds.records}
    by_id = {r.id: r for r in loaded.records}
    for rec in ds.records:
        assert by_id[rec.id].label == rec.label
        assert np.array_equal(
            by_id[rec.id].features.astype(np.float32), rec.features.astype(np.float32)
        )


def test_resaving_a_loaded_dataset_over_its_own_files_keeps_every_byte(tmp_path, rng):
    records = tuple(
        EmbeddingRecord(f"r{i}", rng.standard_normal((5 + i, 16), dtype=np.float32), i) for i in range(2)
    )
    save_dataset(tmp_path, Dataset(records))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    save_dataset(tmp_path, load_dataset(tmp_path, expected_cols=16))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path, "train")


# ---------------------------------------------------------------------------
# dataset invariants


def test_duplicate_ids_rejected():
    rec = EmbeddingRecord("same", np.zeros((1, 4), dtype=np.float32), 0)
    with pytest.raises(ValueError, match="unique"):
        Dataset((rec, rec), "train")


@pytest.mark.parametrize("split", ["train", "test"])
def test_each_split_requires_labels_and_records(split):
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        EmbeddingRecord("a", np.zeros((1, 4), dtype=np.float32), None)
    with pytest.raises(ValueError, match="empty"):
        Dataset((), split)


# ---------------------------------------------------------------------------
# pad / truncate


def test_pad_or_truncate_identity(rng):
    x = rng.standard_normal((3200, 8))
    assert pad_or_truncate(x, 3200) is x


def test_pad_or_truncate_keeps_head(rng):
    x = rng.standard_normal((4000, 8))
    out = pad_or_truncate(x, 3200)
    assert out.shape == (3200, 8)
    assert np.array_equal(out, x[:3200])


def test_pad_or_truncate_zero_pads_tail(rng):
    x = rng.standard_normal((100, 8))
    out = pad_or_truncate(x, 3200)
    assert out.shape == (3200, 8)
    assert np.array_equal(out[:100], x)
    assert not out[100:].any()


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 50), target=st.integers(1, 50))
def test_pad_or_truncate_is_idempotent(rows, target):
    x = np.arange(rows * 3, dtype=np.float64).reshape(rows, 3)
    once = pad_or_truncate(x, target)
    assert once.shape == (target, 3)
    assert np.array_equal(pad_or_truncate(once, target), once)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synthesize_is_deterministic():
    a = synthesize_dataset(4, seed=11, difficulty=0.7)
    b = synthesize_dataset(4, seed=11, difficulty=0.7)
    assert len(a) == 8
    for ra, rb in zip(a.records, b.records):
        assert ra.id == rb.id and ra.label == rb.label
        assert np.array_equal(ra.features, rb.features)
    c = synthesize_dataset(4, seed=12, difficulty=0.7)
    assert not np.array_equal(a.records[0].features, c.records[0].features)


def test_synthesize_frame_counts_and_labels():
    ds = synthesize_dataset(3, seed=0, difficulty=1.0)
    assert sorted(r.label for r in ds.records) == [0, 0, 0, 1, 1, 1]
    for rec in ds.records:
        assert 800 <= rec.features.shape[0] <= 3200
        assert rec.features.shape[1] == 1024


def test_cue_channels_are_a_fixed_subset():
    assert len(CUE_CHANNELS) == 32
    assert len(set(CUE_CHANNELS.tolist())) == 32
    assert CUE_CHANNELS.min() >= 0 and CUE_CHANNELS.max() < 1024
    # the literal is the seeded draw that first fixed the synthetic data
    drawn = np.sort(np.random.default_rng(0x48414646).choice(1024, 32, replace=False))
    assert CUE_CHANNELS.dtype == drawn.dtype
    assert np.array_equal(CUE_CHANNELS, drawn)


def test_band_energy_oracle_separates_full_difficulty():
    ds = synthesize_dataset(50, seed=303, difficulty=1.0)
    correct = sum(oracle_classify(r.features) == r.label for r in ds.records)
    assert correct / len(ds) >= 0.95


def test_band_energy_scores_scale_with_difficulty():
    easy = synthesize_dataset(5, seed=42, difficulty=1.0)
    scores0 = [band_energy_score(r.features) for r in easy.records if r.label == 0]
    scores1 = [band_energy_score(r.features) for r in easy.records if r.label == 1]
    assert max(scores0) < BAND_ENERGY_THRESHOLD < min(scores1)


def test_degenerate_difficulty_distributions_coincide():
    ds = synthesize_dataset(25, seed=77, difficulty=1e-9)
    accuracy = sum(oracle_classify(r.features) == r.label for r in ds.records) / len(ds)
    assert 0.35 <= accuracy <= 0.65
    scores0 = [band_energy_score(r.features) for r in ds.records if r.label == 0]
    scores1 = [band_energy_score(r.features) for r in ds.records if r.label == 1]
    assert abs(np.mean(scores0) - np.mean(scores1)) < 1.0


def test_difficulty_range_enforced():
    with pytest.raises(ValueError):
        synthesize_dataset(1, seed=0, difficulty=0.0)
    with pytest.raises(ValueError):
        synthesize_dataset(1, seed=0, difficulty=1.5)
    with pytest.raises(ValueError):
        synthesize_dataset(0, seed=0, difficulty=1.0)
