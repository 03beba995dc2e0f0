import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attribank import autodiff as ad
from attribank import data_io as dio
from attribank.bank import compose_text_input, route, scores, select_top_c
from attribank.encoders import ImageSample, TokenSequence
from attribank.evaluation import AccuracyMatrix, CdclReport, average_accuracy, evaluate, run_cdcl
from attribank.trainer import TrainConfig, init_state, run_sequence

from conftest import rng


def matrix_from_rows(rows):
    t = len(rows)
    m = AccuracyMatrix.empty([f"task{i}" for i in range(t)])
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m.set(i, j, v)
    return m


def test_average_accuracy_single_task():
    m = matrix_from_rows([[73.0]])
    assert average_accuracy(m, 1) == 73.0


def test_average_accuracy_mean_of_two():
    m = matrix_from_rows([[90.0], [80.0, 60.0]])
    assert average_accuracy(m, 2) == 70.0


def test_average_accuracy_range_check():
    m = matrix_from_rows([[50.0]])
    with pytest.raises(ValueError):
        average_accuracy(m, 0)
    with pytest.raises(ValueError):
        average_accuracy(m, 2)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(1, 8))
def test_average_accuracy_matches_direct_recomputation(seed, t):
    g = rng(seed)
    rows = [list(100.0 * g.random(i + 1)) for i in range(t)]
    m = matrix_from_rows(rows)
    for i in range(1, t + 1):
        want = sum(rows[i - 1]) / i
        assert abs(average_accuracy(m, i) - want) <= 1e-12


def test_matrix_rejects_upper_triangle_and_out_of_range():
    m = AccuracyMatrix.empty(["a", "b"])
    with pytest.raises(ValueError):
        m.set(0, 1, 50.0)
    with pytest.raises(ValueError):
        m.set(1, 0, 101.0)


def test_matrix_json_round_trip():
    m = matrix_from_rows([[10.0], [20.0, 30.0]])
    m2 = AccuracyMatrix.from_dict(m.to_dict())
    np.testing.assert_array_equal(
        np.nan_to_num(m.a, nan=-1), np.nan_to_num(m2.a, nan=-1))
    assert m2.task_labels == m.task_labels


def test_transfer_scores_on_reference_rows():
    # Transcribed reference rows exercise the FT/BT arithmetic.
    main = CdclReport(acc_scratch_b=81.4, acc_a2b_on_b=82.3,
                      acc_scratch_a=83.3, acc_a2b_on_a=90.3, acc_joint=78.3)
    assert abs(main.ft - 0.9) < 0.05
    assert abs(main.bt - 7.0) < 0.05

    icarl = CdclReport(acc_scratch_b=49.5, acc_a2b_on_b=49.7,
                       acc_scratch_a=59.5, acc_a2b_on_a=34.5, acc_joint=30.7)
    assert abs(icarl.ft - 0.2) < 0.05
    assert abs(icarl.bt - (-25.0)) < 0.05

    coop = CdclReport(acc_scratch_b=67.6, acc_a2b_on_b=59.0,
                      acc_scratch_a=79.3, acc_a2b_on_a=75.9, acc_joint=55.4)
    assert abs(coop.bt - (-3.4)) < 0.05


def test_transfer_scores_zero_for_equal_operands():
    r = CdclReport(acc_scratch_b=50.0, acc_a2b_on_b=50.0,
                   acc_scratch_a=60.0, acc_a2b_on_a=60.0, acc_joint=55.0)
    assert r.ft == 0.0
    assert r.bt == 0.0


def test_report_invariants_hold():
    g = rng(5)
    for _ in range(50):
        a, b, c, d, e = 100.0 * g.random(5)
        r = CdclReport(acc_scratch_b=a, acc_a2b_on_b=b, acc_scratch_a=c,
                       acc_a2b_on_a=d, acc_joint=e)
        assert abs(r.ft - (b - a)) <= 1e-9
        assert abs(r.bt - (d - c)) <= 1e-9


def tiny_stream(seed=1, tasks=2):
    spec = dio.SyntheticSpec(num_latent_attributes=6, attributes_per_class=2,
                             num_tasks=tasks, classes_per_task=2, samples_per_class=5,
                             feature_dim=8, noise_sigma=0.05, seed=seed)
    return dio.generate_synthetic(spec)


def tiny_config(**overrides):
    base = dict(n=4, m=2, c=2, epochs_per_task=1, batch_size=4, tau=0.2, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def prepared_state(stream, cfg, mode="attriclip"):
    state = init_state(mode, cfg, stream)
    for task in stream.tasks:
        for cid in task.class_ids:
            state.register_class(cid, stream.class_tokens[cid])
    return state


def test_evaluate_single_candidate_is_always_right():
    stream = tiny_stream()
    state = prepared_state(stream, tiny_config())
    only = stream.tasks[0].class_ids[0]
    samples = [s for s in stream.tasks[0].test if s.label == only]
    assert evaluate(state, samples, [only]) == 100.0


def test_evaluate_planted_samples_score_perfectly():
    stream = tiny_stream()
    cfg = tiny_config()
    state = prepared_state(stream, cfg, mode="zero_shot")
    planted = []
    for cid in state.seen_classes():
        seq = TokenSequence(ad.constant(state.class_tokens[cid].reshape(1, 1, -1)))
        w = state.encoders.encode_text(seq).values[0]
        # invert the toy image map approximately: plant features whose encoding
        # equals the class text embedding, via least squares
        w_img = state.encoders.weights.theta["w_image"]
        x = np.linalg.lstsq(w_img, w, rcond=None)[0]
        planted.append(ImageSample(vector=x, label=cid, task_id=0))
    assert evaluate(state, planted, state.seen_classes()) == 100.0


def test_evaluate_matches_brute_force_scorer():
    stream = tiny_stream()
    cfg = tiny_config()
    state = prepared_state(stream, cfg)
    candidates = state.seen_classes()
    samples = stream.all_test_samples()

    correct = 0
    for s in samples:
        z = state.encoders.encode_image(s)
        sel = select_top_c(scores(z, state.bank.keys.values), cfg.c)
        best_cid, best_score = None, -np.inf
        seq = compose_text_input(sel, state.bank.frozen_view())
        prefix = seq.tokens.values[seq.rows].reshape(-1, seq.tokens.shape[2])
        for cid in candidates:
            seq = TokenSequence(ad.constant(np.vstack([prefix, state.class_tokens[cid]])[None]))
            w = state.encoders.encode_text(seq).values[0]
            sc = float(np.dot(z, w) / (np.linalg.norm(z) * np.linalg.norm(w)))
            if sc > best_score:
                best_cid, best_score = cid, sc
        correct += best_cid == s.label
    want = 100.0 * correct / len(samples)
    assert evaluate(state, samples, candidates) == want


def test_evaluate_encodes_each_selection_once_whatever_the_class_count():
    stream = tiny_stream(tasks=10)
    state = prepared_state(stream, tiny_config())
    samples = stream.all_test_samples()
    unique = {sel.index_tuple
              for sel in route(state.encoders.encode_image(samples), state.bank, 2)}
    assert len(unique) > 1
    calls = []
    encode = state.encoders.encode_text
    state.encoders.encode_text = lambda seq, tails=None: calls.append(tails.shape) or encode(
        seq, tails)
    for candidates in (state.seen_classes()[:4], state.seen_classes()):
        calls.clear()
        evaluate(state, samples, candidates)
        assert calls == [(len(candidates), 8)] * len(unique)


def test_evaluate_large_group_matches_one_sample_at_a_time():
    # One selection for every sample (shared prompt), so the group spans
    # several cosine-matrix chunks.
    stream = dio.generate_synthetic(dio.SyntheticSpec(
        num_latent_attributes=6, attributes_per_class=2, num_tasks=3, classes_per_task=2,
        samples_per_class=100, feature_dim=8, noise_sigma=0.3, seed=4))
    state = prepared_state(stream, tiny_config(), mode="shared_prompt")
    samples = stream.all_test_samples()
    assert len(samples) == 600
    cands = state.seen_classes()
    hits = sum(evaluate(state, [s], cands) for s in samples) / 100.0
    assert 0 < hits < len(samples)
    assert evaluate(state, samples, cands) == 100.0 * hits / len(samples)


def test_evaluate_invariant_to_candidate_order():
    stream = tiny_stream()
    state = prepared_state(stream, tiny_config())
    samples = stream.all_test_samples()
    cands = state.seen_classes()
    a = evaluate(state, samples, cands)
    b = evaluate(state, samples, list(reversed(cands)))
    assert a == b


def test_evaluate_round_with_shared_cache_matches_separate_calls():
    stream = tiny_stream(tasks=3)
    state = prepared_state(stream, tiny_config())
    cands = state.seen_classes()
    separate = [evaluate(state, task.test, cands) for task in stream.tasks]
    cache = {}
    assert [evaluate(state, task.test, cands, cache=cache) for task in stream.tasks] == separate

    # Entries made for one candidate list never answer for another.
    first, last = stream.tasks[0], stream.tasks[-1]
    want = evaluate(state, first.test, first.class_ids)
    assert evaluate(state, first.test, first.class_ids, cache=cache) == want
    narrow = {}
    evaluate(state, first.test, first.class_ids, cache=narrow)
    assert evaluate(state, last.test, cands, cache=narrow) == separate[-1]


def _with_bad_image(samples, row, vector):
    samples = list(samples)
    samples[row] = ImageSample(vector=vector, label=samples[row].label, task_id=0)
    return samples


@pytest.mark.parametrize("vector, error, message", [
    (np.zeros(7), ad.ShapeError, "expected width 8, got shape"),
    (np.full(8, np.nan), ad.NumericError, "non-finite"),
], ids=["wrong_width", "non_finite"])
def test_evaluate_rejects_a_bad_image(vector, error, message):
    stream = tiny_stream()
    state = prepared_state(stream, tiny_config())
    samples = _with_bad_image(stream.all_test_samples(), 3, vector)
    with pytest.raises(error, match=message):
        evaluate(state, samples, state.seen_classes())


def test_evaluate_unknown_class_rejected():
    stream = tiny_stream()
    state = prepared_state(stream, tiny_config())
    with pytest.raises(KeyError):
        evaluate(state, stream.all_test_samples(), [999])


def test_zero_shot_matrix_has_no_drift():
    stream = tiny_stream(tasks=3)
    matrix, _ = run_sequence(stream, tiny_config(), mode="zero_shot")
    for s in range(3):
        for t in range(s, 3):
            assert matrix.a[t, s] == matrix.a[s, s]


def test_run_cdcl_zero_shot_transfers_are_zero():
    spec = dio.SyntheticSpec(num_latent_attributes=6, attributes_per_class=2,
                             num_tasks=2, classes_per_task=2, samples_per_class=4,
                             feature_dim=8, noise_sigma=0.05, seed=2)
    a, b = dio.generate_synthetic_pair(spec, spec, shared_attributes=3)
    report = run_cdcl(a, b, tiny_config(), mode="zero_shot")
    assert report.ft == 0.0
    assert report.bt == 0.0


def test_run_cdcl_rejects_overlapping_class_ids():
    stream = tiny_stream()
    with pytest.raises(ValueError, match="share class ids"):
        run_cdcl(stream, stream, tiny_config())
