"""Task streams: synthetic generation, the binary embedding file, checkpoints.

Embedding file layout (everything little-endian):

    magic        4 bytes, ASCII "ATRB"
    version      u32 (currently 1)
    d            u32  embedding / class-token dimension
    num_classes  u32
    num_samples  u32
    class token table   num_classes rows of d float32
    records      num_samples x (label u32, task_id u32, d float32)

The file length must match the header-implied byte count exactly. Floats are
32-bit on disk and widened to 64-bit in memory.

Checkpoint container: magic "ATCK", u32 version, then length-prefixed named
sections, then a trailing u64 checksum (first 8 bytes of the SHA-256 of all
preceding bytes). Writes are atomic (write-temp-then-rename).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .bank import AttributeBank
from .encoders import FrozenEncoderPair, ImageSample
from .trainer import LearnerState, TrainConfig, preset
from .util import atomic_write_bytes, check_number_types, keyed_rng

EMBED_MAGIC = b"ATRB"
EMBED_VERSION = 1
CKPT_MAGIC = b"ATCK"
CKPT_VERSION = 1

_CTX_FEAT_ATTRS, _CTX_TOKEN_ATTRS, _CTX_SUBSET, _CTX_SAMPLES = 31, 32, 33, 34

# Rejection keeps latent attributes spread apart in feature space.
MAX_ATTRIBUTE_COSINE = 0.5


class DataError(Exception):
    """Base class for data-layer failures."""


class BadMagicError(DataError):
    pass


class BadVersionError(DataError):
    pass


class TruncatedFileError(DataError):
    pass


class LabelRangeError(DataError):
    pass


class ChecksumError(DataError):
    pass


@dataclass
class Task:
    task_id: int
    class_ids: list
    train: list
    test: list


@dataclass
class TaskStream:
    """Ordered tasks with disjoint class sets plus the class-token table."""

    tasks: list
    class_tokens: dict
    d: int
    image_width: int
    backend: str = "toy"

    def all_class_ids(self) -> list:
        return [cid for task in self.tasks for cid in task.class_ids]

    def all_test_samples(self) -> list:
        return [sample for task in self.tasks for sample in task.test]


@dataclass
class SyntheticSpec:
    """Attribute-structured benchmark: classes are sums of shared latent
    attributes, so images of different classes genuinely share structure."""

    num_latent_attributes: int = 12
    attributes_per_class: int = 3
    num_tasks: int = 5
    classes_per_task: int = 4
    samples_per_class: int = 50
    feature_dim: int = 32
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_number_types(self)
        if self.attributes_per_class > self.num_latent_attributes:
            raise DataError("attributes_per_class cannot exceed num_latent_attributes")
        for name in ("num_latent_attributes", "attributes_per_class", "num_tasks",
                     "classes_per_task", "samples_per_class", "feature_dim"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise DataError("noise_sigma must be non-negative")


def _draw_spread_unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Unit vectors with pairwise cosine below MAX_ATTRIBUTE_COSINE, by rejection."""
    accepted: list[np.ndarray] = []
    draws = 0
    budget = 10 * count
    while len(accepted) < count:
        if draws >= budget:
            raise DataError(
                f"could not place {count} attributes in {dim} dimensions after "
                f"{budget} draws; increase feature_dim")
        draws += 1
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if all(float(np.dot(v, u)) < MAX_ATTRIBUTE_COSINE for u in accepted):
            accepted.append(v)
    return np.stack(accepted)


def _normalized_sum(rows: np.ndarray) -> np.ndarray:
    s = rows.sum(axis=0)
    return s / np.linalg.norm(s)


def generate_synthetic(spec: SyntheticSpec,
                       feature_attrs: np.ndarray | None = None,
                       token_attrs: np.ndarray | None = None,
                       class_id_offset: int = 0) -> TaskStream:
    """Deterministic attribute-structured stream for the given spec.

    Each class is assigned a without-replacement subset of latent attributes;
    its feature mean and its class token are both normalized sums of that
    subset (in feature space and token space respectively), so attribute
    overlap across classes exists by construction. Callers may inject
    pre-drawn attribute matrices to share latent structure between streams.
    """
    if feature_attrs is None:
        feature_attrs = _draw_spread_unit_vectors(
            keyed_rng(spec.seed, _CTX_FEAT_ATTRS), spec.num_latent_attributes, spec.feature_dim)
    if token_attrs is None:
        token_attrs = keyed_rng(spec.seed, _CTX_TOKEN_ATTRS).standard_normal(
            (spec.num_latent_attributes, spec.feature_dim)) / math.sqrt(spec.feature_dim)
    if feature_attrs.shape != (spec.num_latent_attributes, spec.feature_dim):
        raise DataError(f"feature attribute matrix has shape {feature_attrs.shape}")
    if token_attrs.shape != (spec.num_latent_attributes, spec.feature_dim):
        raise DataError(f"token attribute matrix has shape {token_attrs.shape}")

    tasks = []
    class_tokens: dict[int, np.ndarray] = {}
    for t in range(spec.num_tasks):
        class_ids = [class_id_offset + t * spec.classes_per_task + i
                     for i in range(spec.classes_per_task)]
        train: list[ImageSample] = []
        test: list[ImageSample] = []
        for cid in class_ids:
            subset = np.sort(keyed_rng(spec.seed, _CTX_SUBSET, cid).choice(
                spec.num_latent_attributes, size=spec.attributes_per_class, replace=False))
            mean = _normalized_sum(feature_attrs[subset])
            class_tokens[cid] = _normalized_sum(token_attrs[subset])
            for split, sink in ((0, train), (1, test)):
                rng = keyed_rng(spec.seed, _CTX_SAMPLES, cid, split)
                noise = rng.standard_normal((spec.samples_per_class, spec.feature_dim))
                for row in noise:
                    sink.append(ImageSample(vector=mean + spec.noise_sigma * row,
                                            label=cid, task_id=t))
        tasks.append(Task(task_id=t, class_ids=class_ids, train=train, test=test))
    return TaskStream(tasks=tasks, class_tokens=class_tokens,
                      d=spec.feature_dim, image_width=spec.feature_dim, backend="toy")


def generate_synthetic_pair(spec_a: SyntheticSpec, spec_b: SyntheticSpec,
                            shared_attributes: int) -> tuple[TaskStream, TaskStream]:
    """Two streams with disjoint class ids whose latent attribute pools overlap.

    A master attribute set of size n_a + n_b - shared is drawn from spec_a's
    seed; stream A uses the first n_a rows, stream B the last n_b, so exactly
    ``shared_attributes`` latent directions appear in both.
    """
    if spec_a.feature_dim != spec_b.feature_dim:
        raise DataError("paired streams must share feature_dim")
    if not 0 <= shared_attributes <= min(spec_a.num_latent_attributes,
                                         spec_b.num_latent_attributes):
        raise DataError("shared_attributes out of range")
    na, nb = spec_a.num_latent_attributes, spec_b.num_latent_attributes
    total = na + nb - shared_attributes
    feat = _draw_spread_unit_vectors(
        keyed_rng(spec_a.seed, _CTX_FEAT_ATTRS), total, spec_a.feature_dim)
    tok = keyed_rng(spec_a.seed, _CTX_TOKEN_ATTRS).standard_normal(
        (total, spec_a.feature_dim)) / math.sqrt(spec_a.feature_dim)
    stream_a = generate_synthetic(spec_a, feature_attrs=feat[:na], token_attrs=tok[:na])
    offset = spec_a.num_tasks * spec_a.classes_per_task
    stream_b = generate_synthetic(spec_b, feature_attrs=feat[total - nb:],
                                  token_attrs=tok[total - nb:], class_id_offset=offset)
    return stream_a, stream_b


# ---------------------------------------------------------------------------
# embedding file


def write_embedding_file(path: str, samples, class_tokens: dict, d: int) -> None:
    """Serialize samples and the class-token table in the ATRB layout."""
    ids = sorted(class_tokens)
    if ids != list(range(len(ids))):
        raise DataError("embedding file requires contiguous class ids starting at 0")
    buf = io.BytesIO()
    buf.write(EMBED_MAGIC)
    buf.write(struct.pack("<III", EMBED_VERSION, d, len(ids)))
    buf.write(struct.pack("<I", len(samples)))
    for cid in ids:
        row = np.asarray(class_tokens[cid], dtype="<f4")
        if row.shape != (d,):
            raise DataError(f"class token {cid} has shape {row.shape}, expected ({d},)")
        buf.write(row.tobytes())
    for sample in samples:
        vec = np.asarray(sample.vector, dtype="<f4")
        if vec.shape != (d,):
            raise DataError(f"sample embedding has shape {vec.shape}, expected ({d},)")
        if not 0 <= sample.label < len(ids):
            raise LabelRangeError(f"sample label {sample.label} outside class table")
        buf.write(struct.pack("<II", sample.label, sample.task_id))
        buf.write(vec.tobytes())
    atomic_write_bytes(path, buf.getvalue())


def read_embedding_file(path: str):
    """Parse an ATRB file; returns (samples, class_tokens, d).

    Embeddings arrive as float32 on disk and are widened to float64.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 20:
        raise TruncatedFileError(f"{path}: header needs 20 bytes, file has {len(blob)}")
    if blob[:4] != EMBED_MAGIC:
        raise BadMagicError(f"{path}: bad magic {blob[:4]!r}")
    version, d, num_classes, num_samples = struct.unpack("<IIII", blob[4:20])
    if version != EMBED_VERSION:
        raise BadVersionError(f"{path}: version {version}, expected {EMBED_VERSION}")
    if d == 0:
        raise DataError(f"{path}: embedding dimension d is 0")
    expected = 20 + num_classes * d * 4 + num_samples * (8 + d * 4)
    if len(blob) < expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes, found {len(blob)}")
    if len(blob) > expected:
        raise DataError(f"{path}: {len(blob) - expected} trailing bytes after payload")
    table = np.frombuffer(blob, dtype="<f4", count=num_classes * d, offset=20)
    class_tokens = dict(enumerate(table.astype(np.float64).reshape(num_classes, d)))
    if not num_samples:
        return [], class_tokens, d
    records = np.frombuffer(blob, count=num_samples, offset=20 + num_classes * d * 4,
                            dtype=[("label", "<u4"), ("task", "<u4"), ("vec", "<f4", (d,))])
    labels = records["label"]
    if labels.max() >= num_classes:
        label = labels[np.argmax(labels >= num_classes)]
        raise LabelRangeError(f"{path}: record label {label} >= num_classes {num_classes}")
    rows = zip(records["vec"].astype(np.float64), labels.tolist(), records["task"].tolist())
    samples = [ImageSample(vector=vec, label=label, task_id=task_id)
               for vec, label, task_id in rows]
    return samples, class_tokens, d


def assemble_stream(train_samples, test_samples, class_tokens: dict, d: int) -> TaskStream:
    """Group flat records into an ordered task stream (lookup image backend).

    Every test record must belong to a task that has training records.
    """
    task_ids = sorted({s.task_id for s in train_samples})
    orphans = sorted({s.task_id for s in test_samples} - set(task_ids))
    if orphans:
        raise DataError(f"test records of task ids {orphans} have no training records")
    tasks = []
    for tid in task_ids:
        train = [s for s in train_samples if s.task_id == tid]
        test = [s for s in test_samples if s.task_id == tid]
        class_ids = sorted({s.label for s in train})
        tasks.append(Task(task_id=tid, class_ids=class_ids, train=train, test=test))
    seen: set[int] = set()
    for task in tasks:
        overlap = seen.intersection(task.class_ids)
        if overlap:
            raise DataError(f"class ids {sorted(overlap)} appear in multiple tasks")
        seen.update(task.class_ids)
    return TaskStream(tasks=tasks, class_tokens=dict(class_tokens), d=d,
                      image_width=d, backend="lookup")


# ---------------------------------------------------------------------------
# checkpoints


def _pack_array(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    head = struct.pack("<I", arr.ndim) + b"".join(struct.pack("<I", s) for s in arr.shape)
    return head + arr.astype("<f8").tobytes()


def _unpack_array(payload: bytes, offset: int = 0):
    (ndim,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    shape = []
    for _ in range(ndim):
        (s,) = struct.unpack_from("<I", payload, offset)
        shape.append(s)
        offset += 4
    count = int(np.prod(shape)) if shape else 1
    arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
    return arr.astype(np.float64), offset + count * 8


def _sections_blob(sections: dict) -> bytes:
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<I", CKPT_VERSION))
    for name, payload in sections.items():
        encoded = name.encode()
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<Q", len(payload)))
        buf.write(payload)
    body = buf.getvalue()
    return body + hashlib.sha256(body).digest()[:8]


def _parse_sections(blob: bytes, path: str) -> dict:
    if len(blob) < 16:
        raise TruncatedFileError(f"{path}: too short for a checkpoint")
    body, trailer = blob[:-8], blob[-8:]
    if hashlib.sha256(body).digest()[:8] != trailer:
        raise ChecksumError(f"{path}: checkpoint checksum mismatch")
    if body[:4] != CKPT_MAGIC:
        raise BadMagicError(f"{path}: bad checkpoint magic {body[:4]!r}")
    (version,) = struct.unpack_from("<I", body, 4)
    if version != CKPT_VERSION:
        raise BadVersionError(f"{path}: checkpoint version {version}, expected {CKPT_VERSION}")
    sections = {}
    offset = 8
    while offset < len(body):
        try:
            (name_len,) = struct.unpack_from("<I", body, offset)
            name = body[offset + 4:offset + 4 + name_len].decode()
            (payload_len,) = struct.unpack_from("<Q", body, offset + 4 + name_len)
        except (struct.error, UnicodeDecodeError) as e:
            raise DataError(f"{path}: malformed section header at byte {offset}: {e}") from None
        offset += 12 + name_len
        if offset + payload_len > len(body):
            raise TruncatedFileError(f"{path}: section {name} runs past end of file")
        sections[name] = body[offset:offset + payload_len]
        offset += payload_len
    return sections


def write_checkpoint(state, config, path: str) -> None:
    """Persist a learner state so a resumed run is bit-identical."""
    meta = {
        "mode": state.mode,
        "data_hash": state.data_hash,
        "step_counter": state.step_counter,
        "tasks_done": state.tasks_done,
        "encoder": {
            "d": state.encoders.d,
            "image_width": state.encoders.image_width,
            "seed": state.encoders.weights.seed,
            "max_tokens": state.encoders.max_tokens,
            "backend": state.encoders.backend,
        },
    }
    sections = {
        "meta": json.dumps(meta, sort_keys=True).encode(),
        "config": json.dumps(asdict(config), sort_keys=True).encode(),
    }
    if state.bank is not None:
        sections["bank_keys"] = _pack_array(state.bank.keys.values)
        sections["bank_prompts"] = _pack_array(state.bank.prompts.values)
    tok = io.BytesIO()
    tok.write(struct.pack("<I", len(state.class_tokens)))
    for cid in sorted(state.class_tokens):
        tok.write(struct.pack("<I", cid))
        tok.write(_pack_array(state.class_tokens[cid]))
    sections["class_tokens"] = tok.getvalue()
    atomic_write_bytes(path, _sections_blob(sections))


def read_checkpoint(path: str):
    """Load (LearnerState, TrainConfig); raises DataError before returning partial state."""
    with open(path, "rb") as f:
        sections = _parse_sections(f.read(), path)
    try:
        return _state_from_sections(sections)
    except (KeyError, ValueError, TypeError, struct.error) as e:
        raise DataError(f"{path}: malformed checkpoint: {e!r}") from None


def _state_from_sections(sections: dict):
    meta = json.loads(sections["meta"].decode())
    for key in ("step_counter", "tasks_done"):
        if type(meta[key]) is not int or meta[key] < 0:
            raise ValueError(f"{key} {meta[key]!r} is not a non-negative integer")
    config = TrainConfig(**json.loads(sections["config"].decode()))
    mode = meta["mode"]
    expected = {"meta", "config", "class_tokens"}
    if mode != "zero_shot":
        expected |= {"bank_keys", "bank_prompts"}
    if set(sections) != expected:
        raise ValueError(f"sections {sorted(sections)} do not fit mode {mode!r}")
    enc_info = meta["encoder"]
    encoders = FrozenEncoderPair(d=enc_info["d"], image_width=enc_info["image_width"],
                                 seed=enc_info["seed"], max_tokens=enc_info["max_tokens"],
                                 backend=enc_info["backend"])
    bank = None
    if "bank_keys" in sections:
        keys, _ = _unpack_array(sections["bank_keys"])
        prompts, _ = _unpack_array(sections["bank_prompts"])
        n = preset(mode, config).n
        if keys.shape != (n, encoders.d) or prompts.shape != (n, config.m, encoders.d):
            raise ValueError(f"bank of shape {keys.shape}/{prompts.shape} does not fit "
                             f"mode {mode!r} with n={n}, m={config.m}, d={encoders.d}")
        bank = AttributeBank(ad.parameter(keys), ad.parameter(prompts))
    tokens = {}
    payload = sections["class_tokens"]
    (count,) = struct.unpack_from("<I", payload, 0)
    offset = 4
    for _ in range(count):
        (cid,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        arr, offset = _unpack_array(payload, offset)
        tokens[int(cid)] = arr
    state = LearnerState(mode=mode, bank=bank, encoders=encoders, class_tokens=tokens,
                         step_counter=meta["step_counter"], tasks_done=meta["tasks_done"],
                         top_c=config.c, data_hash=meta["data_hash"])
    return state, config
