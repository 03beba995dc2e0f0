import numpy as np
import pytest

from attribank import autodiff as ad
from attribank.bank import AttributeBank, Selection
from attribank.encoders import FrozenEncoderPair, TokenSequence
from attribank.objective import (classification_loss, key_matching_loss,
                                 prompt_orthogonality_loss)

from conftest import rng
from reference import (absolute, add, concat, cosine_logits, cosine_sim, matmul, mean_all, mul,
                       neg_log_prob, scale, softmax_logits, sum_all, take, transpose)


def matmul_oracle(a, b):
    """Naive triple-loop matrix product."""
    a = np.atleast_2d(a)
    b = b.reshape(b.shape[0], -1)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def weighted_sum(t, weights):
    return sum_all(mul(t, ad.constant(weights)))


def test_matmul_matches_triple_loop_oracle():
    g = rng(0)
    a = g.standard_normal((3, 4))
    b = g.standard_normal((4, 2))
    out = matmul(ad.constant(a), ad.constant(b))
    np.testing.assert_allclose(out.values, matmul_oracle(a, b), rtol=1e-13, atol=0)


def test_matmul_vector_cases():
    g = rng(1)
    a = g.standard_normal((3, 4))
    v = g.standard_normal(4)
    u = g.standard_normal(3)
    np.testing.assert_allclose(matmul(ad.constant(a), ad.constant(v)).values,
                               matmul_oracle(a, v).reshape(-1), rtol=1e-13)
    np.testing.assert_allclose(matmul(ad.constant(u), ad.constant(a)).values,
                               matmul_oracle(u, a).reshape(-1), rtol=1e-13)


def test_matmul_shape_error_names_primitive():
    with pytest.raises(ad.ShapeError, match="matmul"):
        matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 2))))


def test_cosine_sim_orthogonal_is_zero():
    out = cosine_sim(ad.constant([1.0, 0.0]), ad.constant([0.0, 1.0]))
    assert abs(float(out.values)) < 1e-12


def test_cosine_sim_self_is_one():
    for seed in range(5):
        v = rng(seed).standard_normal(6)
        out = cosine_sim(ad.constant(v), ad.constant(v))
        assert abs(float(out.values) - 1.0) < 1e-9


def test_backward_sum_gives_ones():
    v = ad.parameter(rng(2).standard_normal(7))
    ad.backward(sum_all(v))
    np.testing.assert_array_equal(v.grad, np.ones(7))


def test_backward_cosine_matches_finite_differences():
    g = rng(3)
    v = ad.parameter(g.standard_normal(5))
    c = g.standard_normal(5)
    err = ad.finite_difference_check(lambda t: cosine_sim(t, ad.constant(c)), v, h=1e-5)
    assert err <= 1e-6


def test_backward_detached_leaf_gets_zero_grad():
    u = ad.parameter(np.ones(3))
    v = ad.parameter(np.ones(3))
    mul(u, ad.constant(np.full(3, 2.0)))  # u participates in the tape
    loss = sum_all(v)                     # but the loss does not reach it
    ad.backward(loss)
    np.testing.assert_array_equal(u.grad, np.zeros(3))


def test_backward_rejects_non_scalar():
    v = ad.parameter(np.ones(3))
    with pytest.raises(ad.ShapeError):
        ad.backward(mul(v, v))


def test_fd_check_squared_l2_norm():
    v = ad.parameter(np.array([1.0, 2.0]))
    err = ad.finite_difference_check(lambda t: sum_all(mul(t, t)), v, h=1e-5)
    assert err <= 1e-8
    np.testing.assert_allclose(v.grad, 2.0 * v.values, rtol=1e-12)


def test_fd_check_constant_function_is_exact_zero():
    v = ad.parameter(np.array([0.4, -0.3]))
    err = ad.finite_difference_check(lambda t: ad.constant(1.25), v)
    assert err == 0.0


def test_fd_check_reports_non_finite():
    v = ad.parameter(np.array([1.0]))
    with pytest.raises(ad.NumericError):
        ad.finite_difference_check(lambda t: ad.constant(np.nan), v)


# Every differentiable primitive against central differences, many seeds.

_TOWER = FrozenEncoderPair(d=4, image_width=4, seed=5, max_tokens=4)

def _fd_cases(seed):
    g = rng(seed)
    x = g.standard_normal((3, 4))
    v = g.standard_normal(4)
    w3 = g.standard_normal(3)
    w4 = g.standard_normal(4)
    w6 = g.standard_normal(6)
    wx = g.standard_normal((3, 4))
    wxt = g.standard_normal((4, 3))
    w32 = g.standard_normal((3, 2))
    m42 = g.standard_normal((4, 2))
    c4 = g.standard_normal(4)
    c2 = g.standard_normal(2)
    w12 = g.standard_normal(12)
    tails = g.standard_normal((2, 4))
    w24 = g.standard_normal((2, 4))
    zs = g.standard_normal((3, 4))
    keys = g.standard_normal((5, 4))
    # Hinges held away from the kink: (1 - cos) - neg + margin is at least
    # 1.2 for neg = -1 and at most -0.8 for neg = 3.
    sels = [Selection([2, 0], negative=-1.0), Selection([4, 2], negative=3.0),
            Selection([2, 0], negative=3.0)]

    def keys_loss(distance):
        return lambda t: key_matching_loss(zs, sels, AttributeBank(t, ad.constant(x)), distance)

    cases = {
        "matmul_left": (x, lambda t: weighted_sum(matmul(t, ad.constant(m42)), w32)),
        "matmul_vec": (v, lambda t: weighted_sum(matmul(ad.constant(x), t), w3)),
        "add": (v, lambda t: weighted_sum(add(t, ad.constant(c4)), w4)),
        "add_scalar": (v, lambda t: weighted_sum(add(t, 1.7), w4)),
        "mul": (v, lambda t: weighted_sum(mul(t, ad.constant(c4)), w4)),
        "scale": (v, lambda t: weighted_sum(scale(t, -2.3), w4)),
        "concat": (v, lambda t: weighted_sum(concat([t, ad.constant(c2)]), w6)),
        "transpose": (x, lambda t: weighted_sum(transpose(t), wxt)),
        # row 2 read twice: both reads accumulate into it; row 1 gets nothing
        "take": (x, lambda t: weighted_sum(
            concat([take(t, 2), take(t, 0), take(t, 2)]), w12)),
        "cosine_sim": (v, lambda t: cosine_sim(t, ad.constant(c4))),
        "cosine_logits": (v, lambda t: weighted_sum(
            cosine_logits(t, ad.constant(np.stack([c4, w4])), -1.3), c2)),
        # the differentiated tensor is the rows, read out of order; row 1 gets nothing
        "cosine_logits_entries": (x, lambda t: weighted_sum(
            cosine_logits(ad.constant(c4), take(t, [2, 0]), 0.7), c2)),
        # a stack's rows [2, 0] as the prefix of both tails; entry 1 gets nothing
        "encode_text_prefix": (x[:, None], lambda t: weighted_sum(
            _TOWER.encode_text(TokenSequence(t, [2, 0]), ad.constant(tails)), w24)),
        "encode_text_tails": (tails, lambda t: weighted_sum(
            _TOWER.encode_text(TokenSequence(ad.constant(x[:, None]), [2, 0, 1]), t), w24)),
        "softmax_vec": (v, lambda t: weighted_sum(softmax_logits(t), w4)),
        "softmax_rows": (x, lambda t: weighted_sum(softmax_logits(t), wx)),
        "neg_log_prob": (v, lambda t: neg_log_prob(t, 2)),
        "abs": (v, lambda t: weighted_sum(absolute(t), w4)),
        "sum": (v, lambda t: sum_all(t)),
        "mean": (x, lambda t: mean_all(t)),
        # samples 0 and 2 share the differentiated selection's embeddings
        "classification_loss": (x, lambda t: classification_loss(
            zs, [2, 0, 1], [t, ad.constant(wx)], [[0, 2], [1]], 0.3)),
        "key_matching_cosine": (keys, keys_loss("cosine")),
        "key_matching_mse": (keys, keys_loss("mse")),
        "key_matching_triplet": (keys, keys_loss("triplet")),
        # three prompts of one token through the tower, then the pair node
        "prompt_orthogonality": (x[:, None], lambda t: prompt_orthogonality_loss(
            AttributeBank(ad.constant(x), t), _TOWER)),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_fd_cases(0)))
def test_primitive_gradients_match_finite_differences(name):
    for seed in range(100):
        start, f = _fd_cases(seed)[name]
        err = ad.finite_difference_check(f, ad.parameter(start), h=1e-5)
        assert err <= 1e-5, f"{name} seed {seed}: fd error {err}"


def test_backward_is_linear():
    g = rng(11)
    base = g.standard_normal(5)
    c1 = g.standard_normal(5)
    c2 = g.standard_normal(5)
    a, b = 1.7, -0.6

    def f(t):
        return cosine_sim(t, ad.constant(c1))

    def h(t):
        return sum_all(mul(t, ad.constant(c2)))

    v = ad.parameter(base.copy())
    ad.reset_tape()
    ad.backward(add(scale(f(v), a), scale(h(v), b)))
    combined = v.grad.copy()

    v1 = ad.parameter(base.copy())
    ad.reset_tape()
    ad.backward(f(v1))
    v2 = ad.parameter(base.copy())
    ad.reset_tape()
    ad.backward(h(v2))
    np.testing.assert_allclose(combined, a * v1.grad + b * v2.grad, atol=1e-12, rtol=0)


def test_cosine_logits_matches_scaled_cosine_chain_bit_for_bit():
    def grads(fused, a0, b0, w):
        k = len(b0)
        a = ad.parameter(a0.copy())
        b = ad.parameter(b0.copy())
        ad.reset_tape()
        if fused:
            logits = cosine_logits(a, b, 2.5)
        else:
            logits = concat([scale(cosine_sim(a, take(b, i)), 2.5) for i in range(k)])
        ad.backward(neg_log_prob(mul(logits, ad.constant(w)), k // 2))
        return logits.values, a.grad, b.grad

    for k, d in [(4, 5), (1, 32), (20, 32), (80, 32), (80, 1)]:
        g = rng(13 + k)
        inputs = g.standard_normal(d), g.standard_normal((k, d)), g.standard_normal(k)
        for got, want in zip(grads(True, *inputs), grads(False, *inputs)):
            np.testing.assert_array_equal(got, want, err_msg=f"K={k} d={d}")


def test_cosine_logits_rejects_bad_inputs():
    v = ad.parameter(np.ones(3))
    with pytest.raises(ad.ShapeError):
        cosine_logits(v, ad.constant(np.ones((1, 4))), 1.0)
    with pytest.raises(ad.ShapeError):
        cosine_logits(v, ad.constant(np.ones((0, 3))), 1.0)
    with pytest.raises(ad.NumericError):
        cosine_logits(v, ad.constant(np.ones((1, 3))), np.inf)


def test_tape_replay_is_bit_identical():
    g = rng(12)
    v = ad.parameter(g.standard_normal(6))
    loss = neg_log_prob(softmax_logits(mul(v, v)), 1)
    ad.backward(loss)
    first = v.grad.copy()
    ad.backward(loss)
    np.testing.assert_array_equal(first, v.grad)


def test_constant_inputs_never_accumulate_gradient():
    c = ad.constant(np.ones(3))
    v = ad.parameter(np.ones(3))
    ad.backward(sum_all(mul(c, v)))
    assert c.grad is None
    assert v.grad is not None


def test_concat_promotes_scalars():
    parts = [cosine_sim(ad.constant([1.0, 0.0]), ad.constant([1.0, 0.0])),
             ad.constant(2.5)]
    out = concat(parts)
    assert out.shape == (2,)


def test_take_row_out_of_range():
    with pytest.raises(IndexError, match="take"):
        take(ad.parameter(np.zeros((2, 3))), 2)
    with pytest.raises(IndexError, match="take"):
        take(ad.parameter(np.zeros((2, 3))), -1)
    with pytest.raises(IndexError, match="take"):
        take(ad.parameter(np.zeros((2, 3))), [0, 2])
    with pytest.raises(IndexError, match="take"):
        take(ad.parameter(np.zeros((2, 3))), [1, 1])


def test_neg_log_prob_index_out_of_range():
    with pytest.raises(IndexError):
        neg_log_prob(ad.constant([0.1, 0.2]), 2)


def test_add_shape_mismatch_raises():
    with pytest.raises(ad.ShapeError, match="add"):
        add(ad.constant(np.zeros(3)), ad.constant(np.zeros(4)))
