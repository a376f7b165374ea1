"""Embedding ingestion, fixed-length preprocessing, and synthetic datasets.

Records are (frames x 1024) embedding matrices with binary labels (0 =
healthy control, 1 = AD). The on-disk format (magic ``HAFE``) stores float32
little-endian values, kept as float32 in memory, and round-trips bit-exactly;
a label manifest is plain ``id,label`` lines. The synthetic generator stands
in for the real corpus: class 1 carries a slow sinusoidal drift on a fixed
channel subset, a long-range cue that the merge hierarchy can exploit and
that a closed-form band-energy rule can verify.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptionError, DimensionError, FormatError

EMBEDDING_MAGIC = b"HAFE"
EMBEDDING_VERSION = 1
EMBEDDING_DIM = 1024
MANIFEST_NAME = "manifest.csv"
FINITE_CHECK_VALUES = 1 << 16  # feature values read and checked as one block

# synthetic-cue constants: class 1 adds difficulty * sin(2*pi*t/CUE_PERIOD + phase)
# to CUE_CHANNELS. The subset is fixed (independent of the dataset seed) so
# train and held-out splits share the same cue and generalization is well posed.
# It was first drawn as np.sort(np.random.default_rng(0x48414646).choice(
# EMBEDDING_DIM, CUE_CHANNEL_COUNT, replace=False)) and is written out so that
# importing the package does not load numpy.random; a test keeps the two equal.
CUE_PERIOD = 400.0
CUE_CHANNEL_COUNT = 32
CUE_CHANNELS = np.array(
    [0, 7, 34, 53, 59, 122, 133, 139, 256, 284, 336, 361, 404, 411, 416, 501,
     509, 524, 527, 561, 580, 749, 795, 802, 807, 916, 934, 951, 997, 1006, 1017, 1022],
    dtype=np.int64,
)
BAND_ENERGY_THRESHOLD = 50.0
SYNTH_MIN_FRAMES = 800
SYNTH_MAX_FRAMES = 3200


def _is_file_name(rec_id: str) -> bool:
    """True if ``<rec_id>.hafe`` names a file in the dataset's own directory
    and ``rec_id`` fits on one manifest line."""
    return rec_id not in ("", ".", "..") and not any(c in rec_id for c in "/\\\0\n\r")


@dataclass(frozen=True)
class EmbeddingRecord:
    """One record: an id, its (frames, channels) features and its label, 0 or 1.

    ``source`` is the features array itself, or the ``.hafe`` file that holds
    them, with ``cols`` channels. ``features`` gives an array source back as
    it is, the very array given. A file source is read again on each access,
    through ``load_embedding`` with every check it makes, into a new
    read-only array, and must still hold this id; nothing of it stays in
    memory once the caller drops the array.
    """

    id: str  # a plain file name: a dataset stores the record as <id>.hafe
    source: np.ndarray | Path
    label: int
    cols: int = EMBEDDING_DIM  # channels a file source must hold

    def __post_init__(self):
        if not _is_file_name(self.id):
            raise ValueError(f"record id {self.id!r} is not a plain file name")
        if not isinstance(self.source, Path) and (self.source.ndim != 2 or 0 in self.source.shape):
            raise ValueError(f"features must be a non-empty 2-D matrix, got {self.source.shape}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")

    @property
    def features(self) -> np.ndarray:
        """(frames, channels); a file source is read anew on each access."""
        if not isinstance(self.source, Path):
            return self.source
        rec_id, features = load_embedding(self.source, self.cols)
        if rec_id != self.id:
            raise CorruptionError(f"{self.source}: holds record id {rec_id!r}, the manifest lists {self.id!r}")
        return features


@dataclass(frozen=True)
class Dataset:
    """A named split of one or more labeled records with unique ids."""

    records: tuple[EmbeddingRecord, ...]
    split: str = "train"

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")
        if not self.records:
            raise ValueError("a dataset cannot be empty")
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("record ids must be unique within a dataset")

    def __len__(self):
        return len(self.records)


# ---------------------------------------------------------------------------
# on-disk format


def save_embedding(path, record: EmbeddingRecord) -> None:
    """Write one record; features are stored as float32 little-endian."""
    encoded = record.id.encode("utf-8")
    # read once, before the open truncates what may be this record's own file
    features = np.ascontiguousarray(record.features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<I", EMBEDDING_VERSION))
        fh.write(struct.pack("<II", *features.shape))
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(features)  # from the array's own buffer, no copy


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """``n`` bytes from ``fh``; a size larger than what is left of the file is
    corruption, rejected before anything is allocated for it."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CorruptionError(f"{path}: {what} needs {n} bytes, only {left} are left")
    data = fh.read(n)
    if len(data) != n:
        raise CorruptionError(f"{path}: truncated while reading {what}")
    return data


def _read_utf8(fh, n: int, path, what: str) -> str:
    """``n`` bytes from ``fh`` as UTF-8 text; bytes that are not UTF-8 are corruption."""
    try:
        return _read_exact(fh, n, path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptionError(f"{path}: {what} is not UTF-8: {exc}") from None


def _read_header(fh, path, expected_cols: int) -> tuple[str, int, int]:
    """The id, rows and columns of a ``.hafe`` header, leaving ``fh`` at its values.

    Checks the magic, version, shape and id, and that the file holds exactly
    the values the shape declares.
    """
    magic = _read_exact(fh, 4, path, "magic")
    if magic != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {EMBEDDING_MAGIC!r}")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
    if version != EMBEDDING_VERSION:
        raise FormatError(f"{path}: unsupported embedding version {version}")
    rows, cols = struct.unpack("<II", _read_exact(fh, 8, path, "shape"))
    if rows < 1 or cols < 1:
        raise CorruptionError(f"{path}: degenerate shape ({rows}, {cols})")
    if cols != expected_cols:
        raise DimensionError(f"{path}: {cols} channels, expected {expected_cols}")
    (id_len,) = struct.unpack("<H", _read_exact(fh, 2, path, "id length"))
    rec_id = _read_utf8(fh, id_len, path, "id")
    if not _is_file_name(rec_id):
        raise CorruptionError(f"{path}: record id {rec_id!r} is not a plain file name")
    size, left = 4 * rows * cols, os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise CorruptionError(f"{path}: feature values needs {size} bytes, only {left} are left")
    if size < left:
        raise CorruptionError(f"{path}: trailing bytes after feature payload")
    return rec_id, rows, cols


def load_embedding(path, expected_cols: int = EMBEDDING_DIM) -> tuple[str, np.ndarray]:
    """Read one file: its record id and its features, a new read-only float32 array.

    The values are read straight into that array, ``FINITE_CHECK_VALUES`` at
    a time, and each block is checked as it lands, so the check's mask stays
    small. A channel count other than ``expected_cols`` is a
    ``DimensionError``; a NaN or infinite feature value is corruption.
    """
    with open(path, "rb") as fh:
        rec_id, rows, cols = _read_header(fh, path, expected_cols)
        values = np.empty(rows * cols, dtype="<f4")
        for start in range(0, values.size, FINITE_CHECK_VALUES):
            block = values[start : start + FINITE_CHECK_VALUES]
            # a file that shrank after its header was read would leave the rest unset
            if fh.readinto(block) != block.nbytes:
                raise CorruptionError(f"{path}: truncated while reading feature values")
            if not np.isfinite(block).all():
                raise CorruptionError(f"{path}: feature values include NaN or infinity")
    values.flags.writeable = False
    return rec_id, values.reshape(rows, cols)


def save_manifest(path, dataset: Dataset) -> None:
    """One ``id,label`` line per record."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in dataset.records:
            fh.write(f"{record.id},{record.label}\n")


def load_manifest(path) -> dict[str, int]:
    """Map each record id to its label; ids must be unique file names, labels 0 or 1.

    Lines end in LF alone and are read as written (a CR stays on the line).
    Every line needs a label, exactly the text ``0`` or ``1``, as
    ``save_manifest`` writes it; any other is a ``FormatError`` naming the line.
    """
    try:
        lines = Path(path).read_bytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    labels: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        rec_id, sep, label = line.rpartition(",")
        if not sep or not rec_id:
            raise FormatError(f"{path}:{lineno}: expected 'id,label', got {line!r}")
        if not _is_file_name(rec_id):
            raise FormatError(f"{path}:{lineno}: id {rec_id!r} is not a plain file name")
        if rec_id in labels:
            raise FormatError(f"{path}:{lineno}: id {rec_id!r} is listed twice")
        if not label:
            raise FormatError(f"{path}:{lineno}: id {rec_id!r} has no label")
        if label not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: label {label!r} is not 0 or 1")
        labels[rec_id] = int(label)
    return labels


def save_dataset(directory, dataset: Dataset) -> None:
    """Write every record as ``<id>.hafe`` plus the label manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for record in dataset.records:
        save_embedding(directory / f"{record.id}.hafe", record)
    save_manifest(directory / MANIFEST_NAME, dataset)


def load_dataset(directory, split: str = "train", expected_cols: int = EMBEDDING_DIM) -> Dataset:
    """Check ``<id>.hafe`` for each id in the manifest; it must exist and hold that id.

    Each record's features are read here once, through ``load_embedding``
    with every check it makes, and dropped before the next file, so a bad
    file fails before any record is used while loading holds one record at
    a time. The records hold only their file's path and read it again
    whenever their features are read (see ``EmbeddingRecord``).
    """
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise FileNotFoundError(f"{manifest}: manifest not found")
    labels = load_manifest(manifest)
    if not labels:
        raise FormatError(f"{manifest}: lists no records")
    records = []
    for rec_id, label in labels.items():
        record = EmbeddingRecord(rec_id, directory / f"{rec_id}.hafe", label, expected_cols)
        try:
            record.features  # every check, made by the read that train and evaluate make
        except FileNotFoundError:
            raise FormatError(f"{manifest}: lists {rec_id!r}, but {record.source} does not exist") from None
        records.append(record)
    return Dataset(tuple(records), split)


# ---------------------------------------------------------------------------
# fixed-length contract


def pad_or_truncate(x: np.ndarray, target_len: int) -> np.ndarray:
    """Force exactly ``target_len`` frames: keep the head, zero-pad the tail."""
    if target_len < 1:
        raise ValueError(f"target_len must be >= 1, got {target_len}")
    x = np.asarray(x)
    rows = x.shape[0]
    if rows > target_len:
        return x[:target_len]
    if rows < target_len:
        out = np.zeros((target_len, x.shape[1]), dtype=x.dtype)
        out[:rows] = x
        return out
    return x


# ---------------------------------------------------------------------------
# synthetic stand-in corpus


def synthesize_dataset(
    n_per_class: int,
    seed: int,
    difficulty: float,
    split: str = "train",
) -> Dataset:
    """Deterministic labeled dataset of standard-normal embedding records.

    Frame counts are uniform on [800, 3200]. Class 1 records additionally
    carry a coherent sinusoidal drift of amplitude ``difficulty`` (period
    ~400 frames, random phase per record) on the fixed ``CUE_CHANNELS``
    subset. Pure function of (n_per_class, seed, difficulty, split).
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if not 0.0 < difficulty <= 1.0:
        raise ValueError(f"difficulty must be in (0, 1], got {difficulty}")
    rng = np.random.default_rng(seed)
    records = []
    for label in (0, 1):
        for i in range(n_per_class):
            frames = int(rng.integers(SYNTH_MIN_FRAMES, SYNTH_MAX_FRAMES + 1))
            x = rng.standard_normal((frames, EMBEDDING_DIM), dtype=np.float32)
            if label == 1:
                phase = rng.uniform(0.0, 2.0 * np.pi)
                drift = difficulty * np.sin(
                    2.0 * np.pi * np.arange(frames) / CUE_PERIOD + phase
                )
                x[:, CUE_CHANNELS] += drift.astype(np.float32)[:, None]
            records.append(EmbeddingRecord(f"{split}-{label}-{i:04d}", x, label))
    return Dataset(tuple(records), split)


def band_energy_score(features: np.ndarray) -> float:
    """Mean energy at the cue period over the cue channels (mean-centered).

    This is the generator's own closed-form detection statistic: project
    each cue channel onto the unit sine/cosine pair at CUE_PERIOD and
    average the squared magnitudes. Noise-only records score near 2
    (chi-square with 2 dof per channel); a drift of amplitude ``a`` over
    ``L`` frames adds roughly a^2 * L / 2.
    """
    x = np.asarray(features, dtype=np.float64)[:, CUE_CHANNELS]
    x = x - x.mean(axis=0, keepdims=True)
    t = np.arange(x.shape[0])
    basis_s = np.sin(2.0 * np.pi * t / CUE_PERIOD)
    basis_c = np.cos(2.0 * np.pi * t / CUE_PERIOD)
    energy = np.zeros(x.shape[1])
    for basis in (basis_s, basis_c):
        norm = np.linalg.norm(basis)
        if norm > 0:
            energy += (x.T @ (basis / norm)) ** 2
    return float(energy.mean())


def oracle_classify(features: np.ndarray) -> int:
    """``BAND_ENERGY_THRESHOLD`` classifier on the band-energy score (1 = drift present)."""
    return int(band_energy_score(features) > BAND_ENERGY_THRESHOLD)
