import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attribank import data_io as dio
from attribank.encoders import ImageSample
from attribank.trainer import TrainConfig, init_state, train_task

from conftest import rng


def small_spec(**overrides):
    base = dict(num_latent_attributes=6, attributes_per_class=2, num_tasks=2,
                classes_per_task=2, samples_per_class=4, feature_dim=16,
                noise_sigma=0.05, seed=3)
    base.update(overrides)
    return dio.SyntheticSpec(**base)


def test_generator_is_deterministic():
    a = dio.generate_synthetic(small_spec())
    b = dio.generate_synthetic(small_spec())
    for ta, tb in zip(a.tasks, b.tasks):
        for sa, sb in zip(ta.train + ta.test, tb.train + tb.test):
            np.testing.assert_array_equal(sa.vector, sb.vector)
            assert (sa.label, sa.task_id) == (sb.label, sb.task_id)
    for cid in a.class_tokens:
        np.testing.assert_array_equal(a.class_tokens[cid], b.class_tokens[cid])


def test_zero_noise_collapses_classes_to_points():
    stream = dio.generate_synthetic(small_spec(noise_sigma=0.0))
    for task in stream.tasks:
        by_class = {}
        for s in task.train:
            by_class.setdefault(s.label, []).append(s.vector)
        for vectors in by_class.values():
            for v in vectors[1:]:
                np.testing.assert_array_equal(v, vectors[0])


def test_classes_sharing_all_attributes_have_identical_means():
    # attributes_per_class == num_latent_attributes forces every class onto
    # the same attribute subset.
    stream = dio.generate_synthetic(small_spec(num_latent_attributes=2,
                                               attributes_per_class=2,
                                               noise_sigma=0.0))
    first = stream.tasks[0].train[0].vector
    for task in stream.tasks:
        for s in task.train:
            np.testing.assert_allclose(s.vector, first, atol=1e-12)


def test_task_classes_are_disjoint():
    stream = dio.generate_synthetic(small_spec(num_tasks=3))
    ids = stream.all_class_ids()
    assert len(ids) == len(set(ids)) == 6


def test_nearest_centroid_oracle_separates_classes():
    spec = small_spec(num_latent_attributes=12, attributes_per_class=3, num_tasks=5,
                      classes_per_task=4, samples_per_class=50, feature_dim=32,
                      noise_sigma=0.05, seed=1)
    stream = dio.generate_synthetic(spec)
    centroids = {}
    for task in stream.tasks:
        for s in task.train:
            centroids.setdefault(s.label, []).append(s.vector)
    centroids = {cid: np.mean(vs, axis=0) for cid, vs in centroids.items()}
    total = correct = 0
    for task in stream.tasks:
        for s in task.test:
            pred = min(centroids, key=lambda c: float(np.linalg.norm(s.vector - centroids[c])))
            correct += pred == s.label
            total += 1
    assert correct / total >= 0.99


def test_attribute_rejection_reports_budget_exhaustion():
    with pytest.raises(dio.DataError, match="feature_dim"):
        dio.generate_synthetic(small_spec(num_latent_attributes=40, feature_dim=2))


def test_pair_generator_shares_latent_attributes():
    sa, sb = dio.generate_synthetic_pair(small_spec(seed=5), small_spec(seed=5),
                                         shared_attributes=4)
    assert set(sa.all_class_ids()).isdisjoint(sb.all_class_ids())
    # With every class using the full attribute pool and zero noise, class
    # means reduce to the pool sum: fully shared pools make the streams'
    # means coincide, disjoint pools keep them apart.
    full = small_spec(seed=5, num_latent_attributes=4, attributes_per_class=4,
                      noise_sigma=0.0)
    fa, fb = dio.generate_synthetic_pair(full, full, shared_attributes=4)
    np.testing.assert_allclose(fa.tasks[0].train[0].vector,
                               fb.tasks[0].train[0].vector, atol=1e-12)
    da, db = dio.generate_synthetic_pair(full, full, shared_attributes=0)
    assert not np.allclose(da.tasks[0].train[0].vector, db.tasks[0].train[0].vector)


def round_trip_case(tmp_path):
    g = rng(0)
    d = 4
    tokens = {0: g.standard_normal(d), 1: g.standard_normal(d)}
    samples = [ImageSample(vector=g.standard_normal(d), label=i % 2, task_id=i % 2)
               for i in range(6)]
    path = str(tmp_path / "stream.atrb")
    dio.write_embedding_file(path, samples, tokens, d)
    return path, samples, tokens, d


def test_embedding_file_round_trips_bit_exactly(tmp_path):
    path, samples, tokens, d = round_trip_case(tmp_path)
    got_samples, got_tokens, got_d = dio.read_embedding_file(path)
    assert got_d == d
    for cid, row in tokens.items():
        np.testing.assert_array_equal(got_tokens[cid], row.astype(np.float32).astype(np.float64))
    for a, b in zip(samples, got_samples):
        np.testing.assert_array_equal(b.vector, a.vector.astype(np.float32).astype(np.float64))
        assert (a.label, a.task_id) == (b.label, b.task_id)


def test_embedding_file_bad_magic(tmp_path):
    path, *_ = round_trip_case(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.atrb"
    bad.write_bytes(bytes(blob))
    with pytest.raises(dio.BadMagicError):
        dio.read_embedding_file(str(bad))


def test_embedding_file_bad_version(tmp_path):
    path, *_ = round_trip_case(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 9)
    bad = tmp_path / "bad.atrb"
    bad.write_bytes(bytes(blob))
    with pytest.raises(dio.BadVersionError):
        dio.read_embedding_file(str(bad))


def test_embedding_file_truncation(tmp_path):
    path, *_ = round_trip_case(tmp_path)
    blob = open(path, "rb").read()
    bad = tmp_path / "bad.atrb"
    bad.write_bytes(blob[:-3])
    with pytest.raises(dio.TruncatedFileError):
        dio.read_embedding_file(str(bad))


def test_embedding_file_trailing_bytes(tmp_path):
    path, *_ = round_trip_case(tmp_path)
    bad = tmp_path / "bad.atrb"
    bad.write_bytes(open(path, "rb").read() + b"\x00")
    with pytest.raises(dio.DataError, match="trailing"):
        dio.read_embedding_file(str(bad))


def test_embedding_file_label_out_of_range(tmp_path):
    # Hand-patch a record label beyond num_classes.
    path, samples, tokens, d = round_trip_case(tmp_path)
    blob = bytearray(open(path, "rb").read())
    record_start = 20 + len(tokens) * d * 4
    blob[record_start:record_start + 4] = struct.pack("<I", 99)
    bad = tmp_path / "bad.atrb"
    bad.write_bytes(bytes(blob))
    with pytest.raises(dio.LabelRangeError):
        dio.read_embedding_file(str(bad))


def test_embedding_file_hand_assembled_bytes(tmp_path):
    # 2 classes, d=2, 2 records, built byte-by-byte from the documented layout.
    d = 2
    blob = b"ATRB"
    blob += struct.pack("<III", 1, d, 2)
    blob += struct.pack("<I", 2)
    blob += np.array([1.0, 2.0], dtype="<f4").tobytes()      # class 0 token
    blob += np.array([-3.0, 0.5], dtype="<f4").tobytes()     # class 1 token
    blob += struct.pack("<II", 0, 0) + np.array([0.25, -1.5], dtype="<f4").tobytes()
    blob += struct.pack("<II", 1, 1) + np.array([8.0, 9.0], dtype="<f4").tobytes()
    path = tmp_path / "hand.atrb"
    path.write_bytes(blob)
    samples, tokens, got_d = dio.read_embedding_file(str(path))
    assert got_d == 2
    np.testing.assert_array_equal(tokens[0], [1.0, 2.0])
    np.testing.assert_array_equal(tokens[1], [-3.0, 0.5])
    np.testing.assert_array_equal(samples[0].vector, [0.25, -1.5])
    assert (samples[0].label, samples[0].task_id) == (0, 0)
    np.testing.assert_array_equal(samples[1].vector, [8.0, 9.0])
    assert (samples[1].label, samples[1].task_id) == (1, 1)


def test_embedding_file_golden_bytes_are_stable(tmp_path):
    # Format stability: the writer must keep producing these exact bytes.
    d = 2
    tokens = {0: np.array([1.0, 2.0]), 1: np.array([-3.0, 0.5])}
    samples = [ImageSample(vector=np.array([0.25, -1.5]), label=0, task_id=0),
               ImageSample(vector=np.array([8.0, 9.0]), label=1, task_id=1)]
    path = tmp_path / "golden.atrb"
    dio.write_embedding_file(str(path), samples, tokens, d)
    golden = (
        b"ATRB"
        + struct.pack("<III", 1, 2, 2) + struct.pack("<I", 2)
        + np.array([1.0, 2.0], dtype="<f4").tobytes()
        + np.array([-3.0, 0.5], dtype="<f4").tobytes()
        + struct.pack("<II", 0, 0) + np.array([0.25, -1.5], dtype="<f4").tobytes()
        + struct.pack("<II", 1, 1) + np.array([8.0, 9.0], dtype="<f4").tobytes()
    )
    assert path.read_bytes() == golden


def test_assemble_stream_groups_by_task(tmp_path):
    path, samples, tokens, d = round_trip_case(tmp_path)
    got_samples, got_tokens, got_d = dio.read_embedding_file(path)
    stream = dio.assemble_stream(got_samples, got_samples, got_tokens, got_d)
    assert [t.task_id for t in stream.tasks] == [0, 1]
    assert stream.backend == "lookup"
    assert stream.tasks[0].class_ids == [0]
    assert stream.tasks[1].class_ids == [1]


def test_assemble_stream_rejects_class_overlap():
    d = 3
    samples = [ImageSample(vector=np.zeros(d), label=0, task_id=0),
               ImageSample(vector=np.zeros(d), label=0, task_id=1)]
    with pytest.raises(dio.DataError, match="multiple tasks"):
        dio.assemble_stream(samples, [], {0: np.zeros(d)}, d)


def test_write_embedding_file_validates_labels(tmp_path):
    d = 2
    samples = [ImageSample(vector=np.zeros(d), label=5, task_id=0)]
    with pytest.raises(dio.LabelRangeError):
        dio.write_embedding_file(str(tmp_path / "x.atrb"), samples, {0: np.zeros(d)}, d)


def _with_checksum(body: bytes) -> bytes:
    return body + hashlib.sha256(body).digest()[:8]


def _parses_or_data_error(reader, blob: bytes, path) -> None:
    path.write_bytes(blob)
    try:
        reader(str(path))
    except dio.DataError:
        pass


@pytest.mark.parametrize("tail", [b"\x01\x00", b"\x01\x00\x00\x00\xff" + bytes(8)],
                         ids=["header cut short", "name not UTF-8"])
def test_checkpoint_malformed_section_header_is_data_error(tmp_path, tail):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_with_checksum(b"ATCK" + struct.pack("<I", dio.CKPT_VERSION) + tail))
    with pytest.raises(dio.DataError, match="malformed section header"):
        dio.read_checkpoint(str(path))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A trained one-task checkpoint, an ATRB file, and a path for the mutated files."""
    root = tmp_path_factory.mktemp("fuzz")
    stream = dio.generate_synthetic(small_spec(num_tasks=1, samples_per_class=2, feature_dim=8))
    cfg = TrainConfig(n=3, m=2, c=2, epochs_per_task=1, batch_size=2, seed=1)
    state = init_state("attriclip", cfg, stream)
    train_task(state, stream.tasks[0], cfg, class_tokens=stream.class_tokens)
    dio.write_checkpoint(state, cfg, str(root / "valid.ckpt"))
    dio.write_embedding_file(str(root / "valid.atrb"), stream.tasks[0].train,
                             stream.class_tokens, 8)
    return ((root / "valid.ckpt").read_bytes(), (root / "valid.atrb").read_bytes(),
            root / "mutant")


# One edit of a file: overwrite a byte, insert a byte, or cut the file short.
_EDIT = st.tuples(st.sampled_from(["set", "insert", "cut"]), st.floats(0, 1),
                  st.integers(0, 255))


def _mutate(blob: bytes, edits) -> bytes:
    for kind, where, byte in edits:
        i = min(int(where * len(blob)), max(len(blob) - 1, 0))
        if kind == "set":
            blob = blob[:i] + bytes([byte]) + blob[i + 1:]
        elif kind == "insert":
            blob = blob[:i] + bytes([byte]) + blob[i:]
        else:
            blob = blob[:i]
    return blob


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=128), checksummed=st.booleans())
def test_checkpoint_parser_any_bytes_parse_or_data_error(valid_files, blob, checksummed):
    if checksummed:  # past the checksum, so the section parser sees the bytes
        blob = _with_checksum(b"ATCK" + struct.pack("<I", dio.CKPT_VERSION) + blob)
    _parses_or_data_error(dio.read_checkpoint, blob, valid_files[2])


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_checkpoint_mutations_parse_or_data_error(valid_files, edits):
    body = _mutate(valid_files[0][:-8], edits)
    _parses_or_data_error(dio.read_checkpoint, _with_checksum(body), valid_files[2])


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=64), prefixed=st.booleans())
def test_atrb_parser_any_bytes_parse_or_data_error(valid_files, blob, prefixed):
    if prefixed:  # past the magic and version, so the sizes come from the bytes
        blob = b"ATRB" + struct.pack("<I", dio.EMBED_VERSION) + blob
    _parses_or_data_error(dio.read_embedding_file, blob, valid_files[2])


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_atrb_mutations_parse_or_data_error(valid_files, edits):
    _parses_or_data_error(dio.read_embedding_file, _mutate(valid_files[1], edits),
                          valid_files[2])
