import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from attribank import autodiff as ad
from attribank import data_io as dio
from attribank.bank import Selection, class_text_embeddings, init_bank, route, scores, select_top_c
from attribank.encoders import FrozenEncoderPair, ImageSample, TokenSequence
from attribank.objective import DISTANCES, prompt_orthogonality_loss, total_loss
from attribank.trainer import (SequenceError, TrainConfig, forward, init_state, lr_at,
                               run_sequence, train_step, train_task)

from conftest import RecordingList, rng
from reference import ChainTower, add, concat, mul, sum_all


def tiny_stream(seed=1, tasks=2, classes=2, samples=6, dim=8):
    spec = dio.SyntheticSpec(num_latent_attributes=6, attributes_per_class=2,
                             num_tasks=tasks, classes_per_task=classes,
                             samples_per_class=samples, feature_dim=dim,
                             noise_sigma=0.05, seed=seed)
    return dio.generate_synthetic(spec)


def tiny_config(**overrides):
    base = dict(n=4, m=2, c=2, epochs_per_task=2, batch_size=4, tau=0.2, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def test_config_defaults_match_training_protocol():
    cfg = TrainConfig()
    assert cfg.epochs_per_task == 10
    assert cfg.batch_size == 32
    assert cfg.lr0 == 0.001
    assert cfg.lambda_k == 0.7
    assert cfg.lambda_p == 0.3
    assert (cfg.c, cfg.n, cfg.m) == (3, 10, 12)
    assert cfg.distance == "cosine"


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(c=5, n=4)
    with pytest.raises(ValueError):
        TrainConfig(tau=0.0)


def test_config_rejects_unknown_distance():
    with pytest.raises(ValueError, match="distance"):
        TrainConfig(distance="euclidean")


def test_config_round_trips_through_dict():
    cfg = TrainConfig(distance="triplet", seed=9)
    assert TrainConfig(**dataclasses.asdict(cfg)) == cfg


def test_lr_schedule_endpoints_and_midpoint():
    assert lr_at(0, 100, 0.001) == 0.001
    assert abs(lr_at(100, 100, 0.001)) < 1e-18
    assert abs(lr_at(50, 100, 0.001) - 0.0005) < 1e-12


def prepared_state(stream, cfg, mode="attriclip"):
    state = init_state(mode, cfg, stream)
    for task in stream.tasks:
        for cid in task.class_ids:
            state.register_class(cid, stream.class_tokens[cid])
    return state


def test_train_step_zero_weights_leave_keys_untouched():
    stream = tiny_stream()
    cfg = tiny_config(lambda_k=0.0, lambda_p=0.0)
    state = prepared_state(stream, cfg)
    before = state.bank.keys.values.copy()
    train_step(state, stream.tasks[0].train[:4], cfg, cfg.lr0)
    np.testing.assert_array_equal(state.bank.keys.values, before)


def test_train_step_sparse_prompt_updates():
    stream = tiny_stream()
    cfg = tiny_config(lambda_p=0.0)
    state = prepared_state(stream, cfg)
    batch = stream.tasks[0].train[:4]
    selected = set()
    for s in batch:
        z = state.encoders.encode_image(s)
        selected.update(select_top_c(scores(z, state.bank.keys.values), cfg.c).indices)
    before = state.bank.prompts.values.copy()
    train_step(state, batch, cfg, cfg.lr0)
    for i, (p, b) in enumerate(zip(state.bank.prompts.values, before)):
        if i in selected:
            assert not np.array_equal(p, b), f"selected prompt {i} did not move"
        else:
            np.testing.assert_array_equal(p, b)


def test_train_step_moves_exactly_the_selected_rows():
    stream = tiny_stream()
    cfg = tiny_config(lambda_p=0.0)
    state = prepared_state(stream, cfg)
    batch = stream.tasks[0].train[:2]
    selected = set()
    for s in batch:
        z = state.encoders.encode_image(s)
        selected.update(select_top_c(scores(z, state.bank.keys.values), cfg.c).indices)
    assert len(selected) < cfg.n
    keys, prompts = state.bank.keys.values.copy(), state.bank.prompts.values.copy()
    train_step(state, batch, cfg, cfg.lr0)
    for i in range(cfg.n):
        moved = (not np.array_equal(state.bank.keys.values[i], keys[i]),
                 not np.array_equal(state.bank.prompts.values[i], prompts[i]))
        assert moved == ((True, True) if i in selected else (False, False)), f"row {i}"


def test_train_step_matches_fd_sgd_oracle():
    # Tiny instance: analytic step vs central-difference gradients + manual SGD.
    dim, n, m, c = 4, 3, 2, 2
    stream = tiny_stream(seed=2, tasks=1, classes=2, samples=2, dim=dim)
    cfg = tiny_config(n=n, m=m, c=c, tau=0.3, lr0=1e-3, batch_size=1)
    state = prepared_state(stream, cfg)
    batch = [stream.tasks[0].train[0]]

    z = state.encoders.encode_image(batch[0])
    frozen_sel = select_top_c(scores(z, state.bank.keys.values), c)
    params = (state.bank.keys, state.bank.prompts)
    starts = [p.values.copy() for p in params]

    def loss_value():
        # Recompute the full objective with the selection frozen, off the tape.
        from attribank.objective import (classification_loss, key_matching_loss,
                                         prompt_orthogonality_loss, total_loss)
        ad.reset_tape()
        candidates = state.seen_classes()
        from attribank.bank import compose_text_input
        seq = compose_text_input(frozen_sel, state.bank.frozen_view())
        prefix = seq.tokens.values[seq.rows].reshape(-1, dim)
        embs = concat([state.encoders.encode_text(TokenSequence(ad.constant(np.vstack(
            [prefix, state.class_tokens[cid]])[None]))) for cid in candidates])
        l_m = classification_loss([z], [candidates.index(batch[0].label)], [embs], [[0]], cfg.tau)
        l_k = key_matching_loss([z], [frozen_sel], state.bank, cfg.distance)
        l_p = prompt_orthogonality_loss(state.bank, state.encoders)
        val = float(total_loss(l_m, l_k, l_p, cfg.lambda_k, cfg.lambda_p).values)
        ad.reset_tape()
        return val

    h = 1e-5
    fd_grads = []
    for p in params:
        flat = p.values.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_value()
            flat[i] = orig - h
            fm = loss_value()
            flat[i] = orig
            g[i] = (fp - fm) / (2 * h)
        fd_grads.append(g.reshape(p.values.shape))

    train_step(state, batch, cfg, cfg.lr0)
    for p, start, g in zip(params, starts, fd_grads):
        expected = start - cfg.lr0 * g
        assert np.abs(p.values - expected).max() <= 1e-10


@pytest.mark.parametrize("k", [1, 4, 20, 40, 80])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_training_class_embeddings_keep_the_unshared_arithmetic_bit_for_bit(c, k):
    # Training's trajectory amplifies a one-ulp change, so on a parameter bank
    # the stacked tower must equal one primitive chain per sequence, at the
    # benchmark's sizes and C = 1 ... 3, K = 1 ... 80 (BLAS picks its kernel
    # by shape): in values, and in the prompt gradient. L_p's node (all
    # n = 10 standalone prompts) comes last on the tape, so it has written to
    # every prompt row before the class embeddings add into them; from C = 2
    # on, two selections share row 4.
    m, d, n = 12, 32, 10
    sels = [Selection([0, 4, 7][:c]), Selection([4, 2, 9][:c])]
    enc = FrozenEncoderPair(d=d, image_width=d, seed=k, max_tokens=c * m + 16)
    g = rng(k)
    class_rows = ad.constant(g.standard_normal((k, d)))
    weights = g.standard_normal((len(sels), k, d))
    results = []
    for tower in (enc, ChainTower(enc)):
        bank = init_bank(n, m, d, seed=k)
        ad.reset_tape()
        embs = class_text_embeddings(tower, bank, sels, class_rows)[0]
        loss = prompt_orthogonality_loss(bank, tower)
        for e, w in zip(embs, weights):
            loss = add(loss, sum_all(mul(e, ad.constant(w))))
        ad.backward(loss)
        results.append([e.values for e in embs] + [loss.values, bank.prompts.grad])
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def test_forward_puts_one_tower_node_per_selection_whatever_the_class_count():
    stream = tiny_stream(tasks=10, classes=2)
    cfg = tiny_config(n=6, c=2)
    batch = stream.tasks[0].train + stream.tasks[1].train
    selections = None
    lengths = []
    for seen in (stream.tasks[0].class_ids + stream.tasks[1].class_ids, stream.all_class_ids()):
        state = init_state("attriclip", cfg, stream)
        for cid in seen:
            state.register_class(cid, stream.class_tokens[cid])
        if selections is None:
            selections = route(state.encoders.encode_image(batch), state.bank, cfg.c)
        ad.reset_tape()
        forward(state, batch, cfg, selections)
        ops = [node.op for node in ad.active_tape()]
        unique = {sel.index_tuple for sel in selections}
        assert len(unique) > 1
        assert ops.count("encode_text") == len(unique) + 1, len(seen)
        lengths.append(len(ops))
    assert len(seen) == 20
    assert lengths[0] == lengths[1]


def test_forward_without_a_bank_raises_value_error():
    stream = tiny_stream(tasks=1)
    cfg = tiny_config()
    state = init_state("zero_shot", cfg, stream)
    train_task(state, stream.tasks[0], cfg, class_tokens=stream.class_tokens)
    with pytest.raises(ValueError, match="'zero_shot' has no bank"):
        forward(state, stream.tasks[0].train[:2], cfg)


@pytest.mark.parametrize("mode", ["attriclip", "shared_prompt"])
def test_a_step_records_a_fixed_handful_of_nodes(mode, monkeypatch):
    # attriclip: U tower nodes (one per distinct selection), L_m, L_k, L_p's
    # encode and pair nodes, and total_loss.
    # shared_prompt: one tower node, L_m and total_loss.
    stream = tiny_stream(tasks=40, classes=2, samples=8)
    cfg = tiny_config(n=6, c=2, lambda_k=0.7, lambda_p=0.3)
    counts = []
    backward = ad.backward

    def counting_backward(loss):
        counts.append(len(ad.active_tape()))
        backward(loss)

    monkeypatch.setattr(ad, "backward", counting_backward)
    for k in (4, 80):
        seen = stream.all_class_ids()[:k]
        pool = [s for task in stream.tasks for s in task.train if s.label in seen]
        for b in (1, 8, 32):
            state = init_state(mode, cfg, stream)
            for cid in seen:
                state.register_class(cid, stream.class_tokens[cid])
            batch = pool[:b]
            distinct = {sel.index_tuple
                        for sel in route(state.encoders.encode_image(batch), state.bank, cfg.c)}
            assert b == 1 or mode == "shared_prompt" or len(distinct) > 1
            train_step(state, batch, cfg, cfg.lr0)
            want = len(distinct) + 5 if mode == "attriclip" else 3
            assert counts[-1] == want, (k, b)


def test_backward_twice_on_one_step_gives_identical_gradients():
    # The text tower scales, exponentiates and differentiates its scores in
    # buffers of its own. A step that wrote into an array its node saved for
    # backward would change what a second backward reads.
    stream = tiny_stream(tasks=2, classes=2, samples=8)
    cfg = tiny_config(n=6, c=2, lambda_k=0.7, lambda_p=0.3)
    state = prepared_state(stream, cfg)
    batch = stream.tasks[0].train + stream.tasks[1].train
    l_m, l_k, l_p, selections = forward(state, batch, cfg)
    assert len({sel.index_tuple for sel in selections}) > 1
    total = total_loss(l_m, l_k, l_p, cfg.lambda_k, cfg.lambda_p)
    grads = []
    for _ in range(2):
        ad.backward(total)
        grads.append([p.grad.copy() for p in (state.bank.keys, state.bank.prompts)])
    for first, second in zip(*grads):
        assert first.any()
        np.testing.assert_array_equal(first, second)


def _with_bad_image(batch, row, vector):
    batch = list(batch)
    batch[row] = ImageSample(vector=vector, label=batch[row].label, task_id=0)
    return batch


@pytest.mark.parametrize("vector, error, message", [
    (np.zeros(7), ad.ShapeError, "expected width 8, got shape"),
    (np.full(8, np.nan), ad.NumericError, "non-finite"),
], ids=["wrong_width", "non_finite"])
def test_train_step_rejects_a_bad_image_before_any_update(vector, error, message):
    stream = tiny_stream()
    cfg = tiny_config()
    state = prepared_state(stream, cfg)
    before = [p.values.copy() for p in (state.bank.keys, state.bank.prompts)]
    batch = _with_bad_image(stream.tasks[0].train[:4], 2, vector)
    with pytest.raises(error, match=message):
        train_step(state, batch, cfg, cfg.lr0)
    for p, start in zip((state.bank.keys, state.bank.prompts), before):
        np.testing.assert_array_equal(p.values, start)


# First 16 hex digits of sha256(keys + prompts + accuracy matrix bytes) after
# run_sequence at batch sizes 1, 8 and 32, recorded with the per-sample loss
# chains (numpy 2.4.6, x86-64). Training amplifies a one-ulp change, so a
# loss node that rounds differently anywhere moves these.
_TRAINING_BITS = {
    ("cosine", "attriclip"): ("62cc0bcb0aa67e47", "6dcb5e7a0c36ab4b", "a4283d9efed8c4be"),
    ("mse", "attriclip"): ("aa4068a49488a3cc", "4665f4426f94ca31", "4bb362373460aba7"),
    ("triplet", "attriclip"): ("71060bd79fe67cb9", "0a9937bd95ec2e7b", "5a3e21024dee5af4"),
    **{(d, "shared_prompt"): ("6548db658e20a82c", "54eafa68f60c8d5d", "ddaa9c3f35b1973b")
       for d in DISTANCES},
}


def test_training_keeps_its_bits():
    stream = dio.generate_synthetic(dio.SyntheticSpec(
        num_latent_attributes=8, attributes_per_class=2, num_tasks=3, classes_per_task=4,
        samples_per_class=12, feature_dim=16, seed=5))
    got = {}
    for distance, mode in _TRAINING_BITS:
        digests = []
        for b in (1, 8, 32):
            cfg = TrainConfig(epochs_per_task=2, lr0=0.25, n=6, m=3, c=2, tau=0.05, seed=2,
                              batch_size=b, distance=distance)
            matrix, state = run_sequence(stream, cfg, mode=mode)
            digests.append(hashlib.sha256(state.bank.keys.values.tobytes()
                                          + state.bank.prompts.values.tobytes()
                                          + matrix.a.tobytes()).hexdigest()[:16])
        got[distance, mode] = tuple(digests)
    assert got == _TRAINING_BITS


def test_train_task_empty_dataset_errors_without_state_change():
    stream = tiny_stream()
    cfg = tiny_config()
    state = init_state("attriclip", cfg, stream)
    empty = dio.Task(task_id=0, class_ids=[0, 1], train=[], test=[])
    before = [p.values.copy() for p in (state.bank.keys, state.bank.prompts)]
    with pytest.raises(ValueError, match="empty"):
        train_task(state, empty, cfg, class_tokens=stream.class_tokens)
    assert state.class_tokens == {}
    for p, b in zip((state.bank.keys, state.bank.prompts), before):
        np.testing.assert_array_equal(p.values, b)


def test_train_task_rejects_seen_classes():
    stream = tiny_stream()
    cfg = tiny_config()
    state = init_state("attriclip", cfg, stream)
    train_task(state, stream.tasks[0], cfg, class_tokens=stream.class_tokens)
    with pytest.raises(ValueError, match="already seen"):
        train_task(state, stream.tasks[0], cfg, class_tokens=stream.class_tokens)


def test_train_task_step_count():
    # 100 samples, batch 32, 10 epochs -> 40 optimizer steps.
    stream = tiny_stream(tasks=1, classes=2, samples=50)
    cfg = tiny_config(epochs_per_task=10, batch_size=32)
    state = init_state("attriclip", cfg, stream)
    report = train_task(state, stream.tasks[0], cfg, class_tokens=stream.class_tokens)
    assert report["steps"] == 10 * math.ceil(100 / 32) == 40


def test_training_is_deterministic():
    stream = tiny_stream()
    cfg = tiny_config()
    banks = []
    for _ in range(2):
        state = init_state("attriclip", cfg, stream)
        for task in stream.tasks:
            train_task(state, task, cfg, class_tokens=stream.class_tokens)
        banks.append([p.values.copy() for p in (state.bank.keys, state.bank.prompts)])
    for a, b in zip(*banks):
        np.testing.assert_array_equal(a, b)


def test_run_sequence_single_task_matrix():
    stream = tiny_stream(tasks=1)
    matrix, _ = run_sequence(stream, tiny_config(), mode="attriclip")
    assert matrix.a.shape == (1, 1)
    assert not np.isnan(matrix.a[0, 0])


def test_run_sequence_zero_shot_rows_are_constant():
    stream = tiny_stream(tasks=3)
    matrix, _ = run_sequence(stream, tiny_config(), mode="zero_shot")
    for s in range(3):
        col = [matrix.a[t, s] for t in range(s, 3)]
        assert all(v == col[0] for v in col)


def test_run_sequence_encoder_checksum_stable():
    stream = tiny_stream(tasks=2)
    cfg = tiny_config()
    state = init_state("attriclip", cfg, stream)
    before = state.encoders.checksum()
    run_sequence(stream, cfg, state=state)
    assert state.encoders.checksum() == before


def test_run_sequence_monotone_class_registry():
    stream = tiny_stream(tasks=3, classes=2)
    cfg = tiny_config()
    state = init_state("attriclip", cfg, stream)
    seen = []

    def hook(st, t, matrix, report):
        seen.append(len(st.class_tokens))

    run_sequence(stream, cfg, state=state, eval_hooks=[hook])
    assert seen == [2, 4, 6]


def test_run_sequence_failure_retains_completed_rows():
    stream = tiny_stream(tasks=2)
    # sabotage task 2 with an already-seen class id
    stream.tasks[1].class_ids = list(stream.tasks[0].class_ids)
    with pytest.raises(SequenceError) as exc_info:
        run_sequence(stream, tiny_config(), mode="attriclip")
    matrix = exc_info.value.matrix
    assert not np.isnan(matrix.a[0, 0])
    assert np.isnan(matrix.a[1, 1])


def test_run_sequence_is_replay_free():
    stream = tiny_stream(tasks=3)
    log = []
    for task in stream.tasks:
        task.train = RecordingList(task.train, task.task_id, log)
    boundaries = []

    def hook(state, t, matrix, report):
        boundaries.append(len(log))

    run_sequence(stream, tiny_config(), eval_hooks=[hook], mode="attriclip")
    # after task t finishes, no later access may touch tasks <= t
    for t, start in enumerate(boundaries[:-1]):
        later = log[start:]
        assert all(tag > t for tag, _ in later), f"task {t} samples read after it finished"


def test_shared_prompt_single_class_takes_zero_step():
    stream = tiny_stream(tasks=1, classes=1)
    cfg = tiny_config()
    state = prepared_state(stream, cfg, mode="shared_prompt")
    before = state.bank.prompts.values.copy()
    parts, _ = train_step(state, stream.tasks[0].train[:3], cfg, cfg.lr0)
    assert parts.l_m == 0.0
    np.testing.assert_array_equal(state.bank.prompts.values, before)


def test_non_finite_loss_names_losses_once_and_samples_by_class():
    # The shared preset routes without scoring, so a NaN feature reaches the loss.
    stream = tiny_stream(tasks=1)
    cfg = tiny_config()
    state = prepared_state(stream, cfg, mode="shared_prompt")
    batch = stream.tasks[0].train[:3]
    batch[1] = ImageSample(vector=np.full_like(batch[1].vector, np.nan),
                           label=batch[1].label, task_id=0)
    with pytest.raises(ad.NumericError) as exc_info:
        train_step(state, batch, cfg, cfg.lr0)
    lines = str(exc_info.value).splitlines()
    assert lines[0] == "non-finite loss: l_m=nan l_k=0 l_p=0"
    assert lines[1:] == [f"  sample {i}: class {s.label} |z|="
                         f"{float(np.linalg.norm(state.encoders.encode_image(s))):.3e}"
                         for i, s in enumerate(batch)]


def test_shared_prompt_gradient_matches_finite_differences():
    stream = tiny_stream(tasks=1, classes=2, dim=6)
    cfg = tiny_config(n=2, m=2, c=1, tau=0.3)
    state = prepared_state(stream, cfg, mode="shared_prompt")
    batch = stream.tasks[0].train[:2]
    err = ad.finite_difference_check(lambda _: forward(state, batch, cfg)[0],
                                     state.bank.prompts, h=1e-5)
    assert err <= 1e-4


def test_triplet_forward_with_pinned_selections_keeps_their_negative():
    stream = tiny_stream(tasks=1, classes=2, dim=6)
    cfg = tiny_config(n=6, c=2, lambda_p=0.0, distance="triplet")
    state = prepared_state(stream, cfg)
    batch = stream.tasks[0].train[:2]
    _, l_k, _, selections = forward(state, batch, cfg)
    used = sorted({i for sel in selections for i in sel.indices})
    # The hinge is active at the fixed margin, so the check below is not 0 == 0.
    assert float(l_k.values) > 0
    ad.backward(l_k)
    assert state.bank.keys.grad[used].any()
    negatives = [sel.negative for sel in selections]
    # Park every key no image selected on image 0: rescoring would now find
    # a negative at distance ~0 for it.
    z0 = state.encoders.encode_image(batch[0])
    unused = [i for i in range(cfg.n) if i not in used]
    state.bank.keys.values[unused] = z0
    rescored = scores(z0, state.bank.keys.values)
    assert min(rescored[i] for i in range(cfg.n) if i not in selections[0].indices) < negatives[0]

    _, l_k_pinned, _, pinned = forward(state, batch, cfg, selections)
    assert pinned is selections
    assert [sel.negative for sel in pinned] == negatives
    assert float(l_k_pinned.values) == float(l_k.values)


def test_shared_prompt_sequential_training_forgets_versus_joint():
    # One global prompt trained task-by-task loses first-task accuracy
    # relative to the same budget spent on all classes jointly (averaged over
    # seeds: the toy scale is noisy per seed, the direction is the claim).
    from attribank.evaluation import evaluate
    seq_accs = []
    joint_accs = []
    for seed in range(6):
        spec = dio.SyntheticSpec(num_latent_attributes=8, attributes_per_class=2,
                                 num_tasks=2, classes_per_task=3, samples_per_class=20,
                                 feature_dim=16, noise_sigma=0.05, seed=seed)
        stream = dio.generate_synthetic(spec)
        cfg = TrainConfig(n=4, m=3, c=2, epochs_per_task=4, batch_size=8,
                          lr0=0.15, tau=0.05, seed=seed)
        seq = init_state("shared_prompt", cfg, stream)
        for task in stream.tasks:
            train_task(seq, task, cfg, class_tokens=stream.class_tokens)
        seq_accs.append(evaluate(seq, stream.tasks[0].test, seq.seen_classes()))

        merged = dio.Task(task_id=0,
                          class_ids=stream.tasks[0].class_ids + stream.tasks[1].class_ids,
                          train=stream.tasks[0].train + stream.tasks[1].train,
                          test=stream.tasks[0].test + stream.tasks[1].test)
        joint_stream = dio.TaskStream(tasks=[merged], class_tokens=stream.class_tokens,
                                      d=16, image_width=16, backend="toy")
        cfg_joint = TrainConfig(n=4, m=3, c=2, epochs_per_task=8, batch_size=8,
                                lr0=0.15, tau=0.05, seed=seed)
        joint = init_state("shared_prompt", cfg_joint, joint_stream)
        train_task(joint, merged, cfg_joint, class_tokens=stream.class_tokens)
        joint_accs.append(evaluate(joint, stream.tasks[0].test, joint.seen_classes()))
    assert np.mean(seq_accs) < np.mean(joint_accs)


def test_zero_shot_mode_has_no_trainable_parameters():
    stream = tiny_stream(tasks=1)
    cfg = tiny_config()
    state = init_state("zero_shot", cfg, stream)
    assert state.bank is None
    with pytest.raises(ValueError):
        train_step(state, stream.tasks[0].train[:2], cfg, cfg.lr0)


@pytest.mark.parametrize("mode", ["attriclip", "shared_prompt"])
def test_resume_reproduces_straight_through_run(tmp_path, mode):
    stream = tiny_stream(tasks=3)
    cfg = tiny_config()
    straight, _ = run_sequence(stream, cfg, mode=mode)

    ckpt = str(tmp_path / "mid.ckpt")
    saved = {}

    def hook(state, t, matrix, report):
        if t == 0:
            dio.write_checkpoint(state, cfg, ckpt)
            saved["rows"] = matrix.a.copy()

    run_sequence(stream, cfg, eval_hooks=[hook], mode=mode)

    state, cfg_loaded = dio.read_checkpoint(ckpt)
    assert state.mode == mode
    from attribank.evaluation import AccuracyMatrix
    matrix = AccuracyMatrix.empty([f"task{t.task_id}" for t in stream.tasks])
    matrix.a[:1] = saved["rows"][:1]
    resumed, _ = run_sequence(stream, cfg_loaded, state=state, matrix=matrix, start_task=1)
    np.testing.assert_array_equal(resumed.a, straight.a)


def test_checkpoint_round_trip_bit_equal(tmp_path):
    stream = tiny_stream(tasks=1)
    cfg = tiny_config()
    state = init_state("attriclip", cfg, stream)
    train_task(state, stream.tasks[0], cfg, class_tokens=stream.class_tokens)
    path = str(tmp_path / "state.ckpt")
    dio.write_checkpoint(state, cfg, path)
    loaded, cfg2 = dio.read_checkpoint(path)
    assert cfg2 == cfg
    assert loaded.tasks_done == state.tasks_done
    for a, b in zip((loaded.bank.keys, loaded.bank.prompts), (state.bank.keys, state.bank.prompts)):
        np.testing.assert_array_equal(a.values, b.values)
    for cid in state.class_tokens:
        np.testing.assert_array_equal(loaded.class_tokens[cid], state.class_tokens[cid])
    assert loaded.encoders.checksum() == state.encoders.checksum()


@pytest.mark.parametrize("mode", ["shared_prompt", "zero_shot"])
def test_checkpoint_round_trip_other_modes(tmp_path, mode):
    stream = tiny_stream(tasks=1)
    cfg = tiny_config()
    state = init_state(mode, cfg, stream)
    train_task(state, stream.tasks[0], cfg, class_tokens=stream.class_tokens)
    path = str(tmp_path / "state.ckpt")
    dio.write_checkpoint(state, cfg, path)
    loaded, cfg2 = dio.read_checkpoint(path)
    assert (loaded.mode, cfg2) == (mode, cfg)
    if mode == "shared_prompt":
        assert loaded.bank.n == 1
        np.testing.assert_array_equal(loaded.bank.prompts.values, state.bank.prompts.values)
    else:
        assert loaded.bank is None


def test_checkpoint_corruption_detected(tmp_path):
    stream = tiny_stream(tasks=1)
    cfg = tiny_config()
    state = init_state("attriclip", cfg, stream)
    path = str(tmp_path / "state.ckpt")
    dio.write_checkpoint(state, cfg, path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(dio.ChecksumError):
        dio.read_checkpoint(path)


def _checkpoint_sections(tmp_path, mode):
    stream = tiny_stream(tasks=1)
    cfg = tiny_config()
    state = init_state(mode, cfg, stream)
    path = str(tmp_path / "source.ckpt")
    dio.write_checkpoint(state, cfg, path)
    with open(path, "rb") as f:
        return dio._parse_sections(f.read(), path)


@pytest.mark.parametrize("drop", ["meta", "config", "class_tokens", "bank_prompts"])
def test_checkpoint_missing_section_is_data_error(tmp_path, drop):
    sections = _checkpoint_sections(tmp_path, "attriclip")
    del sections[drop]
    path = tmp_path / "broken.ckpt"
    path.write_bytes(dio._sections_blob(sections))
    with pytest.raises(dio.DataError):
        dio.read_checkpoint(str(path))


def test_checkpoint_sections_must_fit_mode(tmp_path):
    # The shared-prompt layout before the baseline became a one-entry bank:
    # its prompt in a section of its own, no bank sections.
    sections = _checkpoint_sections(tmp_path, "shared_prompt")
    sections["shared_prompt"] = sections.pop("bank_prompts")
    del sections["bank_keys"]
    old = tmp_path / "old_shared.ckpt"
    old.write_bytes(dio._sections_blob(sections))
    with pytest.raises(dio.DataError, match="do not fit"):
        dio.read_checkpoint(str(old))

    # A zero-shot checkpoint that carries a bank.
    sections = _checkpoint_sections(tmp_path, "attriclip")
    meta = json.loads(sections["meta"])
    meta["mode"] = "zero_shot"
    sections["meta"] = json.dumps(meta).encode()
    bank_zs = tmp_path / "bank_zero_shot.ckpt"
    bank_zs.write_bytes(dio._sections_blob(sections))
    with pytest.raises(dio.DataError, match="do not fit"):
        dio.read_checkpoint(str(bank_zs))
