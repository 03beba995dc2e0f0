import numpy as np
import pytest

from attribank import autodiff as ad
from attribank.encoders import FrozenEncoderPair, ImageSample, TokenSequence, class_token

from conftest import rng


def make_pair(seed=0, d=8, width=6, max_tokens=12, backend="toy"):
    return FrozenEncoderPair(d=d, image_width=width, seed=seed,
                             max_tokens=max_tokens, backend=backend)


def matvec_oracle(w, x):
    out = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        for k in range(w.shape[1]):
            out[i] += w[i, k] * x[k]
    return out


def test_same_seed_gives_bit_identical_weights():
    a, b = make_pair(5), make_pair(5)
    assert a.checksum() == b.checksum()
    np.testing.assert_array_equal(a.weights.psi["w_proj"], b.weights.psi["w_proj"])


def test_different_seed_changes_checksum():
    assert make_pair(1).checksum() != make_pair(2).checksum()


def test_encode_image_toy_matches_matvec_oracle():
    enc = make_pair(3)
    x = rng(7).standard_normal(6)
    z = enc.encode_image(ImageSample(vector=x, label=0, task_id=0))
    np.testing.assert_allclose(z, matvec_oracle(enc.weights.theta["w_image"], x), rtol=1e-13)


def test_encode_image_deterministic():
    enc = make_pair(4)
    x = rng(8).standard_normal(6)
    np.testing.assert_array_equal(enc.encode_image(x), enc.encode_image(x))


def test_encode_image_lookup_returns_verbatim():
    enc = make_pair(0, d=8, width=8, backend="lookup")
    z = rng(9).standard_normal(8)
    np.testing.assert_array_equal(enc.encode_image(z), z)


def test_encode_image_width_mismatch():
    enc = make_pair(0)
    with pytest.raises(ad.ShapeError, match="width"):
        enc.encode_image(np.zeros(5))


def test_lookup_backend_requires_matching_width():
    with pytest.raises(ValueError):
        FrozenEncoderPair(d=8, image_width=6, seed=0, backend="lookup")


def test_encode_text_deterministic():
    enc = make_pair(6)
    tokens = rng(10).standard_normal((4, 8))
    a = enc.encode_text(TokenSequence(ad.constant(tokens)))
    b = enc.encode_text(TokenSequence(ad.constant(tokens)))
    np.testing.assert_array_equal(a.values, b.values)
    assert a.shape == (8,)


def test_encode_text_gradient_matches_finite_differences():
    enc = make_pair(11)
    start = rng(12).standard_normal((3, 8)) * 0.3
    for seed in range(3):
        tokens = ad.parameter(start + 0.1 * seed)
        err = ad.finite_difference_check(
            lambda t: ad.sum_all(enc.encode_text(TokenSequence(t))), tokens, h=1e-5)
        assert err <= 1e-5


def test_encode_text_is_order_sensitive():
    enc = make_pair(13)
    tokens = rng(14).standard_normal((3, 8))
    swapped = tokens[[1, 0, 2]]
    a = enc.encode_text(TokenSequence(ad.constant(tokens))).values
    b = enc.encode_text(TokenSequence(ad.constant(swapped))).values
    assert not np.allclose(a, b)


def test_text_weights_receive_no_gradient():
    enc = make_pair(15)
    tokens = ad.parameter(rng(16).standard_normal((3, 8)))
    ad.backward(ad.sum_all(enc.encode_text(TokenSequence(tokens))))
    assert tokens.grad is not None and np.abs(tokens.grad).max() > 0
    assert enc._mix_t.grad is None
    assert enc._proj_t.grad is None


def test_encode_text_matches_primitive_chain_bit_for_bit():
    # The text tower is one fused node; it must agree exactly with the same
    # network built from autodiff primitives, in value and input gradient.
    enc = make_pair(19)
    start = rng(20).standard_normal((5, 8))
    psi = enc.weights.psi

    def chain(x):
        s = x.shape[0]
        xp = ad.add(x, ad.constant(psi["pos"][:s]))
        scores = ad.scale(ad.matmul(ad.matmul(xp, ad.constant(psi["w_mix"])), ad.transpose(xp)),
                          1.0 / np.sqrt(8))
        mixed = ad.matmul(ad.softmax_logits(scores), xp)
        pooled = ad.matmul(ad.constant(np.full(s, 1.0 / s)), mixed)
        return ad.matmul(ad.constant(psi["w_proj"]), pooled)

    weights = rng(21).standard_normal(8)
    results = []
    for encode in (lambda x: enc.encode_text(TokenSequence(x)), chain):
        x = ad.parameter(start.copy())
        ad.reset_tape()
        out = encode(x)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(weights))))
        results.append((out.values, x.grad))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    np.testing.assert_array_equal(results[0][1], results[1][1])


def test_encoder_weights_are_write_protected():
    enc = make_pair(17)
    with pytest.raises(ValueError):
        enc.weights.psi["w_mix"][0, 0] = 1.0


def test_encode_text_rejects_wrong_dim_and_overlong():
    enc = make_pair(18, max_tokens=4)
    with pytest.raises(ad.ShapeError):
        enc.encode_text(TokenSequence(ad.constant(np.zeros((2, 5)))))
    with pytest.raises(ad.ShapeError, match="positional"):
        enc.encode_text(TokenSequence(ad.constant(np.zeros((5, 8)))))


def test_token_sequence_requires_matrix():
    with pytest.raises(ad.ShapeError):
        TokenSequence(ad.constant(np.zeros(4)))


def test_class_token_is_seed_and_id_keyed():
    a = class_token(1, 3, 8)
    b = class_token(1, 3, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(class_token(1, 4, 8), a)
    assert not np.allclose(class_token(2, 3, 8), a)
