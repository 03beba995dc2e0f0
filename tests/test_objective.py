import numpy as np
import pytest

from attribank import autodiff as ad
from attribank.bank import init_bank, select_top_c
from attribank.encoders import FrozenEncoderPair, TokenSequence
from attribank.objective import (DistanceVariant, classification_loss, key_matching_loss,
                                 predict_probabilities, prompt_orthogonality_loss,
                                 total_loss, breakdown)

from conftest import rng

D = 8


def np_cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def np_cosine_guarded(u, v):
    # The production cosine adds 1e-12 under each square root; tests that pin
    # 1e-12 tolerances must recompute the same documented formula.
    nu = np.sqrt(np.dot(u, u) + 1e-12)
    nv = np.sqrt(np.dot(v, v) + 1e-12)
    return float(np.dot(u, v) / (nu * nv))


def softmax_oracle(logits):
    """Direct exponentiation, no max subtraction."""
    e = np.exp(np.asarray(logits, dtype=np.float64))
    return e / e.sum()


def cross_entropy_oracle(z, label, embs, tau):
    p = softmax_oracle([np_cosine(z, w) / tau for w in embs])
    return -np.log(p[label])


def make_encoder(seed=0):
    return FrozenEncoderPair(d=D, image_width=D, seed=seed, max_tokens=24)


def random_instance(seed, k=5, tau=0.3):
    g = rng(seed)
    z = g.standard_normal(D)
    embs = [g.standard_normal(D) for _ in range(k)]
    return z, embs, tau


def test_probabilities_sum_to_one():
    for seed in range(20):
        z, embs, tau = random_instance(seed)
        assert abs(predict_probabilities(z, embs, tau).sum() - 1.0) < 1e-9


def test_identical_embeddings_split_evenly():
    z = rng(0).standard_normal(D)
    w = rng(1).standard_normal(D)
    p = predict_probabilities(z, [w, w.copy()], tau=0.01)
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_probabilities_match_naive_softmax_oracle():
    for seed in range(100):
        z, embs, tau = random_instance(seed, k=5, tau=0.05)
        expected = softmax_oracle([np_cosine(z, w) / tau for w in embs])
        got = predict_probabilities(z, embs, tau)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)


def test_probabilities_shift_invariant():
    # Softmax of shifted logits equals the unshifted result.
    z, embs, tau = random_instance(3)
    logits = np.array([np_cosine(z, w) for w in embs]) / tau
    np.testing.assert_allclose(softmax_oracle(logits + 7.25), predict_probabilities(z, embs, tau),
                               atol=1e-12)


def test_probabilities_invariant_to_positive_scaling_of_z():
    z, embs, tau = random_instance(4)
    np.testing.assert_allclose(predict_probabilities(z, embs, tau),
                               predict_probabilities(17.3 * z, embs, tau), atol=1e-12)


def test_probabilities_reject_non_finite():
    z, embs, tau = random_instance(5)
    embs[0][0] = np.inf
    with pytest.raises(ad.NumericError):
        predict_probabilities(z, embs, tau)


def as_tensors(embs):
    return [ad.constant(w) for w in embs]


def test_classification_loss_single_class_is_zero():
    z, embs, tau = random_instance(6, k=1)
    loss = classification_loss([(z, 0, as_tensors(embs))], tau)
    assert loss.item() == 0.0


def test_classification_loss_uniform_logits_is_log_k():
    z = rng(7).standard_normal(D)
    w = rng(8).standard_normal(D)
    for k in (2, 3, 7):
        loss = classification_loss([(z, 0, as_tensors([w] * k))], tau=0.5)
        assert abs(loss.item() - np.log(k)) < 1e-9


def test_classification_loss_matches_cross_entropy_oracle():
    for seed in range(100):
        g = rng(seed)
        z, embs, tau = random_instance(seed, k=4, tau=0.07)
        label = int(g.integers(4))
        got = classification_loss([(z, label, as_tensors(embs))], tau).item()
        assert abs(got - cross_entropy_oracle(z, label, embs, tau)) <= 1e-10 * max(1.0, got)


def test_classification_loss_batch_is_mean():
    entries = []
    expected = []
    for seed in range(4):
        g = rng(100 + seed)
        z, embs, tau = random_instance(100 + seed, k=3, tau=0.2)
        label = int(g.integers(3))
        entries.append((z, label, as_tensors(embs)))
        expected.append(cross_entropy_oracle(z, label, embs, 0.2))
    got = classification_loss(entries, 0.2).item()
    np.testing.assert_allclose(got, np.mean(expected), rtol=1e-10)


def test_classification_loss_label_out_of_range():
    z, embs, tau = random_instance(9)
    with pytest.raises(IndexError):
        classification_loss([(z, len(embs), as_tensors(embs))], tau)


def test_key_matching_collinear_keys_give_zero():
    bank = init_bank(4, 1, D, seed=10)
    z = rng(11).standard_normal(D)
    for i in range(4):
        bank.keys.values[i] = (i + 1.0) * z
    sel = select_top_c(z, bank, 3)
    loss = key_matching_loss(z, sel, bank, DistanceVariant("cosine"))
    assert abs(loss.item()) < 1e-9


def test_key_matching_orthogonal_key_contributes_one():
    bank = init_bank(2, 1, 2, seed=12)
    bank.keys.values[:] = [[0.0, 1.0], [-1.0, 0.0]]
    sel = select_top_c(np.array([1.0, 0.0]), bank, 1)
    assert sel.indices == [0]
    loss = key_matching_loss(np.array([1.0, 0.0]), sel, bank, DistanceVariant("cosine"))
    assert abs(loss.item() - 1.0) < 1e-9


def key_loss_oracle(z, sel, key_rows, variant, margin=0.2):
    total = 0.0
    if variant == "triplet":
        unsel = [i for i in range(len(key_rows)) if i not in sel.indices]
        neg = min(1.0 - np_cosine(z, key_rows[i]) for i in unsel)
    for i in sel.indices:
        if variant == "cosine":
            total += 1.0 - np_cosine(z, key_rows[i])
        elif variant == "mse":
            zh = z / np.linalg.norm(z)
            kh = key_rows[i] / np.linalg.norm(key_rows[i])
            total += float(np.dot(zh - kh, zh - kh))
        else:
            total += max(0.0, (1.0 - np_cosine(z, key_rows[i])) - neg + margin)
    return total


@pytest.mark.parametrize("variant", ["cosine", "mse", "triplet"])
def test_key_matching_matches_per_term_oracle(variant):
    for seed in range(100):
        bank = init_bank(6, 1, D, seed=seed)
        z = rng(seed).standard_normal(D)
        sel = select_top_c(z, bank, 3)
        got = key_matching_loss(z, sel, bank, DistanceVariant(variant)).item()
        want = key_loss_oracle(z, sel, bank.keys.values, variant)
        assert abs(got - want) <= 1e-10, f"{variant} seed {seed}"


def test_key_matching_gradients_reach_selected_keys_only():
    bank = init_bank(5, 1, D, seed=13)
    z = rng(14).standard_normal(D)
    sel = select_top_c(z, bank, 2)
    ad.backward(key_matching_loss(z, sel, bank, DistanceVariant("cosine")))
    for i in range(5):
        if i in sel.indices:
            assert np.abs(bank.keys.grad[i]).max() > 0
        else:
            assert not bank.keys.grad[i].any()


def test_key_matching_triplet_negative_is_detached():
    bank = init_bank(4, 1, D, seed=15)
    z = rng(16).standard_normal(D)
    sel = select_top_c(z, bank, 2)
    ad.backward(key_matching_loss(z, sel, bank, DistanceVariant("triplet", triplet_margin=5.0)))
    for i in range(4):
        if i not in sel.indices:
            assert not bank.keys.grad[i].any()


def test_key_matching_triplet_rejects_full_selection():
    bank = init_bank(3, 1, D, seed=17)
    z = rng(18).standard_normal(D)
    sel = select_top_c(z, bank, 3)
    with pytest.raises(ValueError, match="negative"):
        key_matching_loss(z, sel, bank, DistanceVariant("triplet"))


class StubEncoder:
    """Returns preset embeddings per prompt, in call order."""

    def __init__(self, embeddings):
        self.embeddings = list(embeddings)
        self.calls = 0

    def encode_text(self, seq):
        out = ad.constant(self.embeddings[self.calls])
        self.calls += 1
        return out


def test_prompt_orthogonality_orthogonal_pair_is_zero():
    bank = init_bank(2, 2, 4, seed=19)
    enc = StubEncoder([np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])])
    assert abs(prompt_orthogonality_loss(bank, enc).item()) < 1e-12


def test_prompt_orthogonality_identical_prompts_give_half():
    bank = init_bank(2, 2, D, seed=20)
    bank.prompts.values[1] = bank.prompts.values[0]
    enc = make_encoder(21)
    assert abs(prompt_orthogonality_loss(bank, enc).item() - 0.5) < 1e-9


def test_prompt_orthogonality_matches_double_loop_oracle():
    enc = make_encoder(22)
    for seed in range(30):
        bank = init_bank(4, 2, D, seed=seed)
        embs = [enc.encode_text(TokenSequence(ad.constant(p))).values
                for p in bank.prompts.values]
        want = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                want += abs(np_cosine_guarded(embs[i], embs[j]))
        want /= 4 * 3
        got = prompt_orthogonality_loss(bank, enc).item()
        assert abs(got - want) <= 1e-12


def test_prompt_orthogonality_single_entry_bank_is_zero():
    bank = init_bank(1, 2, 4, seed=23)
    assert prompt_orthogonality_loss(bank, make_encoder()).item() == 0.0


def test_prompt_orthogonality_invariant_under_index_permutation():
    enc = make_encoder(24)
    bank = init_bank(5, 2, D, seed=24)
    base = prompt_orthogonality_loss(bank, enc).item()
    perm = rng(25).permutation(5)
    bank.prompts = ad.parameter(bank.prompts.values[perm])
    bank.keys = ad.parameter(bank.keys.values[perm])
    assert abs(prompt_orthogonality_loss(bank, enc).item() - base) < 1e-12


def test_total_loss_reduces_to_lm_when_weights_zero():
    lm = ad.constant(1.234)
    lk = ad.constant(9.0)
    lp = ad.constant(3.0)
    assert total_loss(lm, lk, lp, 0.0, 0.0).item() == 1.234


def test_total_loss_matches_weighted_sum_oracle():
    g = rng(26)
    for _ in range(100):
        lm, lk, lp = g.random(3)
        wk, wp = g.random(2)
        got = total_loss(ad.constant(lm), ad.constant(lk), ad.constant(lp), wk, wp).item()
        assert abs(got - (lm + wk * lk + wp * lp)) <= 1e-15


def test_breakdown_identity_holds():
    g = rng(27)
    for _ in range(20):
        lm, lk, lp = (ad.constant(x) for x in g.random(3))
        total = total_loss(lm, lk, lp, 0.7, 0.3)
        parts = breakdown(lm, lk, lp, total)
        assert abs(parts.total - (parts.l_m + 0.7 * parts.l_k + 0.3 * parts.l_p)) <= 1e-12


def test_breakdown_rejects_non_finite():
    with pytest.raises(ad.NumericError):
        breakdown(ad.constant(np.nan), ad.constant(0.0), ad.constant(0.0),
                  ad.constant(np.nan))


def test_distance_variant_validation():
    with pytest.raises(ValueError):
        DistanceVariant("euclidean")
    with pytest.raises(ValueError):
        DistanceVariant("triplet", triplet_margin=0.0)
