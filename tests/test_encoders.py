import numpy as np
import pytest

from attribank import autodiff as ad
from attribank.encoders import FrozenEncoderPair, ImageSample, TokenSequence

from conftest import rng
from reference import mul, sum_all, text_tower


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


@pytest.mark.parametrize("backend", ["toy", "lookup"])
def test_encode_image_on_a_stack_equals_per_image_calls_bit_for_bit(backend):
    # The toy map multiplies each row on its own, so a stack's row b is the
    # one-image gemv of image b (a gemm over the stack would not be).
    for seed in range(40):
        g = rng(seed)
        width = 1 + seed % 37
        d = width if backend == "lookup" else 1 + (7 * seed) % 45
        enc = make_pair(seed, d=d, width=width, backend=backend)
        xs = g.standard_normal((1 + seed % 19, width))
        samples = [ImageSample(vector=x, label=0, task_id=0) for x in xs]
        one = np.stack([enc.encode_image(s) for s in samples])
        if backend == "toy":
            np.testing.assert_array_equal(one, np.stack([enc.weights.theta["w_image"] @ x
                                                         for x in xs]))
        else:
            np.testing.assert_array_equal(one, xs)
        for stack in (xs, samples, tuple(samples), list(xs)):
            np.testing.assert_array_equal(enc.encode_image(stack), one)


def test_encode_image_names_a_bad_image_in_a_stack():
    enc = make_pair(0)
    with pytest.raises(ad.ShapeError, match=r"expected width 6, got shape \(5,\) for image 1"):
        enc.encode_image([np.zeros(6), np.zeros(5), np.zeros(6)])
    with pytest.raises(ad.ShapeError, match=r"expected width 6, got shape \(3, 5\)"):
        enc.encode_image(np.zeros((3, 5)))


def test_encode_image_width_mismatch():
    enc = make_pair(0)
    with pytest.raises(ad.ShapeError, match="width"):
        enc.encode_image(np.zeros(5))


def test_lookup_backend_requires_matching_width():
    with pytest.raises(ValueError):
        FrozenEncoderPair(d=8, image_width=6, seed=0, backend="lookup")


def test_encode_text_deterministic():
    enc = make_pair(6)
    tokens = rng(10).standard_normal((1, 4, 8))
    a = enc.encode_text(TokenSequence(ad.constant(tokens)))
    b = enc.encode_text(TokenSequence(ad.constant(tokens)))
    np.testing.assert_array_equal(a.values, b.values)
    assert a.shape == (1, 8)


def test_encode_text_gradient_matches_finite_differences():
    enc = make_pair(11)
    start = rng(12).standard_normal((1, 3, 8)) * 0.3
    for seed in range(3):
        tokens = ad.parameter(start + 0.1 * seed)
        err = ad.finite_difference_check(
            lambda t: sum_all(enc.encode_text(TokenSequence(t))), tokens, h=1e-5)
        assert err <= 1e-5


def test_encode_text_is_order_sensitive():
    enc = make_pair(13)
    tokens = rng(14).standard_normal((1, 3, 8))
    swapped = tokens[:, [1, 0, 2]]
    a = enc.encode_text(TokenSequence(ad.constant(tokens))).values
    b = enc.encode_text(TokenSequence(ad.constant(swapped))).values
    assert not np.allclose(a, b)


def test_text_weights_receive_no_gradient():
    enc = make_pair(15)
    tokens = ad.parameter(rng(16).standard_normal((1, 3, 8)))
    ad.backward(sum_all(enc.encode_text(TokenSequence(tokens))))
    assert tokens.grad is not None and np.abs(tokens.grad).max() > 0
    # The tower's node has the tokens as its only input: the frozen weights
    # are read as plain arrays, so no gradient buffer can exist for them.
    assert [n.inputs for n in ad.active_tape() if n.op == "encode_text"] == [(tokens,)]
    assert all(type(w) is np.ndarray for w in enc.weights.psi.values())


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def shared_and_chain(enc, prefix, tails):
    """Values of the prefix-shared tower and of the per-class primitive chain.

    The shared tower is forward only: it puts nothing on the tape."""
    ad.reset_tape()
    shared = enc.encode_text(TokenSequence(ad.constant(prefix[None]), [0]), ad.constant(tails))
    assert not shared.requires_grad and not ad.active_tape()
    chain = np.concatenate([text_tower(enc, ad.constant(np.vstack([prefix, t]))).values
                            for t in tails])
    return shared.values.reshape(-1), chain


def test_encode_text_matches_primitive_chain_bit_for_bit():
    # A single sequence is one fused node; it must agree exactly with the
    # same network built from autodiff primitives, in value and input gradient.
    enc = make_pair(19)
    start = rng(20).standard_normal((5, 8))
    weights = rng(21).standard_normal(8)
    results = []
    for fused in (True, False):
        x = ad.parameter(start[None].copy() if fused else start.copy())
        ad.reset_tape()
        out = enc.encode_text(TokenSequence(x)) if fused else text_tower(enc, x)
        ad.backward(sum_all(mul(out, ad.constant(weights.reshape(out.shape)))))
        results.append((out.values.reshape(-1), x.grad.reshape(start.shape)))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    np.testing.assert_array_equal(results[0][1], results[1][1])


def test_encode_text_with_tails_matches_primitive_chain():
    # The prefix-shared tower sums in another order than the per-sequence
    # chain, so the pin is 1e-12 relative.
    d = 8
    for prefix_len, k in [(0, 5), (11, 1), (12, 20), (36, 4), (36, 80)]:
        for scale in (1.0, 30.0):
            enc = make_pair(prefix_len + k, d=d, max_tokens=prefix_len + 1)
            g = rng(100 * prefix_len + k)
            prefix = g.standard_normal((prefix_len, d)) * scale
            tails = g.standard_normal((k, d)) * scale
            shared, chain = shared_and_chain(enc, prefix, tails)
            assert rel_err(shared, chain) <= 1e-12, (prefix_len, k, scale)


def test_encode_text_keeps_a_shift_per_prompt_row_and_class():
    # One shift per prompt row across all K class columns underflows here:
    # some row's softmax denominator is exactly 0 for some class, so such a
    # tower would return NaN. The per-(row, class) shift stays exact.
    d, prefix_len, k = 32, 12, 20
    enc = make_pair(0, d=d, max_tokens=prefix_len + 1)
    g = rng(0)
    prefix = g.standard_normal((prefix_len, d)) * 30.0
    tails = g.standard_normal((k, d)) * 30.0
    psi = enc.weights.psi
    xp, xt = prefix + psi["pos"][:prefix_len], tails + psi["pos"][prefix_len]
    xm = xp @ psi["w_mix"]
    s_pp, s_pt = xm @ xp.T / np.sqrt(d), xm @ xt.T / np.sqrt(d)
    shared = np.maximum(s_pp.max(axis=1), s_pt.max(axis=1))[:, None]
    denominators = np.exp(s_pp - shared).sum(axis=1)[:, None] + np.exp(s_pt - shared)
    assert (denominators == 0).any()
    shared, chain = shared_and_chain(enc, prefix, tails)
    assert np.isfinite(shared).all()
    assert rel_err(shared, chain) <= 1e-12


def test_encoder_weights_are_write_protected():
    enc = make_pair(17)
    with pytest.raises(ValueError):
        enc.weights.psi["w_mix"][0, 0] = 1.0


def test_encode_text_rejects_wrong_dim_and_overlong():
    enc = make_pair(18, max_tokens=4)
    with pytest.raises(ad.ShapeError):
        enc.encode_text(TokenSequence(ad.constant(np.zeros((1, 2, 5)))))
    with pytest.raises(ad.ShapeError, match="positional"):
        enc.encode_text(TokenSequence(ad.constant(np.zeros((1, 5, 8)))))
    with pytest.raises(ad.ShapeError, match="positional"):
        enc.encode_text(TokenSequence(ad.constant(np.zeros((1, 4, 8))), [0]),
                        ad.constant(np.zeros((2, 8))))
    with pytest.raises(ad.ShapeError, match="tails"):
        enc.encode_text(TokenSequence(ad.constant(np.zeros((1, 2, 8))), [0]),
                        ad.constant(np.zeros((2, 5))))
    with pytest.raises(ad.ShapeError, match="tail"):
        enc.encode_text(TokenSequence(ad.constant(np.zeros((1, 0, 8)))))


def test_encode_text_takes_rows_exactly_with_tails():
    # Tokens are always a stack. Rows of it are a prefix, which needs tails to
    # end it; a whole stack is one sequence per entry, which takes none. Each
    # mismatch raises before anything lands on the tape, on or off it.
    enc = make_pair(18)
    stack, tails = np.zeros((4, 2, 8)), np.zeros((3, 8))
    for make in (ad.constant, ad.parameter):
        ad.reset_tape()
        with pytest.raises(ad.ShapeError, match="rows"):
            enc.encode_text(TokenSequence(make(stack), [2, 0]))
        for t in (ad.constant(tails), ad.parameter(tails)):
            with pytest.raises(ad.ShapeError, match="rows"):
                enc.encode_text(TokenSequence(make(stack)), t)
        for tokens in (stack[0], stack[0, 0]):
            with pytest.raises(ad.ShapeError, match="stack"):
                TokenSequence(make(tokens))
        assert not ad.active_tape()


def test_token_sequence_requires_matrix():
    with pytest.raises(ad.ShapeError):
        TokenSequence(ad.constant(np.zeros(4)))


def test_stacked_sequences_check_their_shapes():
    enc = make_pair(18, max_tokens=6)
    stack = ad.constant(np.zeros((4, 2, 8)))
    class_rows = ad.constant(np.zeros((3, 8)))
    assert enc.encode_text(TokenSequence(stack, [2, 0]), class_rows).shape == (3, 8)
    assert enc.encode_text(TokenSequence(stack)).shape == (4, 8)
    with pytest.raises(ad.ShapeError, match="positional"):
        enc.encode_text(TokenSequence(stack, [2, 0, 1]), class_rows)
    with pytest.raises(ad.ShapeError, match="tails"):
        enc.encode_text(TokenSequence(stack), class_rows)
    with pytest.raises(ad.ShapeError, match="tails"):
        enc.encode_text(TokenSequence(stack, [1]), ad.constant(np.zeros((3, 5))))
    with pytest.raises(ad.ShapeError):
        TokenSequence(ad.constant(np.zeros((2, 8))), [0])
    for rows in ([0, 0], [4], [-1]):
        with pytest.raises(IndexError):
            TokenSequence(stack, rows)
