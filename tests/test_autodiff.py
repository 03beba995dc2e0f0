import numpy as np
import pytest

from attribank import autodiff as ad

from conftest import rng


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
    return ad.sum_all(ad.mul(t, ad.constant(weights)))


def test_matmul_matches_triple_loop_oracle():
    g = rng(0)
    a = g.standard_normal((3, 4))
    b = g.standard_normal((4, 2))
    out = ad.matmul(ad.constant(a), ad.constant(b))
    np.testing.assert_allclose(out.values, matmul_oracle(a, b), rtol=1e-13, atol=0)


def test_matmul_vector_cases():
    g = rng(1)
    a = g.standard_normal((3, 4))
    v = g.standard_normal(4)
    u = g.standard_normal(3)
    np.testing.assert_allclose(ad.matmul(ad.constant(a), ad.constant(v)).values,
                               matmul_oracle(a, v).reshape(-1), rtol=1e-13)
    np.testing.assert_allclose(ad.matmul(ad.constant(u), ad.constant(a)).values,
                               matmul_oracle(u, a).reshape(-1), rtol=1e-13)


def test_matmul_shape_error_names_primitive():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 2))))


def test_cosine_sim_orthogonal_is_zero():
    out = ad.cosine_sim(ad.constant([1.0, 0.0]), ad.constant([0.0, 1.0]))
    assert abs(out.item()) < 1e-12


def test_cosine_sim_self_is_one():
    for seed in range(5):
        v = rng(seed).standard_normal(6)
        out = ad.cosine_sim(ad.constant(v), ad.constant(v))
        assert abs(out.item() - 1.0) < 1e-9


def test_backward_sum_gives_ones():
    v = ad.parameter(rng(2).standard_normal(7))
    ad.backward(ad.sum_all(v))
    np.testing.assert_array_equal(v.grad, np.ones(7))


def test_backward_cosine_matches_finite_differences():
    g = rng(3)
    v = ad.parameter(g.standard_normal(5))
    c = g.standard_normal(5)
    err = ad.finite_difference_check(lambda t: ad.cosine_sim(t, ad.constant(c)), v, h=1e-5)
    assert err <= 1e-6


def test_backward_detached_leaf_gets_zero_grad():
    u = ad.parameter(np.ones(3))
    v = ad.parameter(np.ones(3))
    ad.mul(u, ad.constant(np.full(3, 2.0)))  # u participates in the tape
    loss = ad.sum_all(v)                     # but the loss does not reach it
    ad.backward(loss)
    np.testing.assert_array_equal(u.grad, np.zeros(3))


def test_backward_rejects_non_scalar():
    v = ad.parameter(np.ones(3))
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(v, v))


def test_fd_check_squared_l2_norm():
    v = ad.parameter(np.array([1.0, 2.0]))
    err = ad.finite_difference_check(lambda t: ad.sum_all(ad.mul(t, t)), v, h=1e-5)
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
    cases = {
        "matmul_left": (x, lambda t: weighted_sum(ad.matmul(t, ad.constant(m42)), w32)),
        "matmul_vec": (v, lambda t: weighted_sum(ad.matmul(ad.constant(x), t), w3)),
        "add": (v, lambda t: weighted_sum(ad.add(t, ad.constant(c4)), w4)),
        "add_scalar": (v, lambda t: weighted_sum(ad.add(t, 1.7), w4)),
        "mul": (v, lambda t: weighted_sum(ad.mul(t, ad.constant(c4)), w4)),
        "scale": (v, lambda t: weighted_sum(ad.scale(t, -2.3), w4)),
        "concat": (v, lambda t: weighted_sum(ad.concat([t, ad.constant(c2)]), w6)),
        "transpose": (x, lambda t: weighted_sum(ad.transpose(t), wxt)),
        # row 2 read twice: both reads accumulate into it; row 1 gets nothing
        "take": (x, lambda t: weighted_sum(
            ad.concat([ad.take(t, 2), ad.take(t, 0), ad.take(t, 2)]), w12)),
        "cosine_sim": (v, lambda t: ad.cosine_sim(t, ad.constant(c4))),
        "cosine_logits": (v, lambda t: weighted_sum(
            ad.cosine_logits(t, [ad.constant(c4), ad.constant(w4)], -1.3), c2)),
        # the differentiated tensor is two of the three entries
        "cosine_logits_entries": (v, lambda t: weighted_sum(
            ad.cosine_logits(ad.constant(c4), [t, ad.constant(w4), t], 0.7), w3)),
        "softmax_vec": (v, lambda t: weighted_sum(ad.softmax_logits(t), w4)),
        "softmax_rows": (x, lambda t: weighted_sum(ad.softmax_logits(t), wx)),
        "neg_log_prob": (v, lambda t: ad.neg_log_prob(t, 2)),
        "abs": (v, lambda t: weighted_sum(ad.absolute(t), w4)),
        "sum": (v, lambda t: ad.sum_all(t)),
        "mean": (x, lambda t: ad.mean_all(t)),
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
        return ad.cosine_sim(t, ad.constant(c1))

    def h(t):
        return ad.sum_all(ad.mul(t, ad.constant(c2)))

    v = ad.parameter(base.copy())
    ad.reset_tape()
    ad.backward(ad.add(ad.scale(f(v), a), ad.scale(h(v), b)))
    combined = v.grad.copy()

    v1 = ad.parameter(base.copy())
    ad.reset_tape()
    ad.backward(f(v1))
    v2 = ad.parameter(base.copy())
    ad.reset_tape()
    ad.backward(h(v2))
    np.testing.assert_allclose(combined, a * v1.grad + b * v2.grad, atol=1e-12, rtol=0)


def test_cosine_logits_matches_scaled_cosine_chain_bit_for_bit():
    g = rng(13)
    a0, b0 = g.standard_normal(5), g.standard_normal((4, 5))
    w = g.standard_normal(4)

    def grads(fused):
        a = ad.parameter(a0.copy())
        bs = [ad.parameter(row.copy()) for row in b0]
        ad.reset_tape()
        if fused:
            logits = ad.cosine_logits(a, bs, 2.5)
        else:
            logits = ad.concat([ad.scale(ad.cosine_sim(a, b), 2.5) for b in bs])
        ad.backward(ad.neg_log_prob(ad.mul(logits, ad.constant(w)), 1))
        return logits.values, a.grad, [b.grad for b in bs]

    fused, chain = grads(True), grads(False)
    np.testing.assert_array_equal(fused[0], chain[0])
    np.testing.assert_array_equal(fused[1], chain[1])
    for got, want in zip(fused[2], chain[2]):
        np.testing.assert_array_equal(got, want)


def test_cosine_logits_rejects_bad_inputs():
    v = ad.parameter(np.ones(3))
    with pytest.raises(ad.ShapeError):
        ad.cosine_logits(v, [ad.constant(np.ones(4))], 1.0)
    with pytest.raises(ad.ShapeError):
        ad.cosine_logits(v, [], 1.0)
    with pytest.raises(ad.NumericError):
        ad.cosine_logits(v, [v], np.inf)


def test_tape_replay_is_bit_identical():
    g = rng(12)
    v = ad.parameter(g.standard_normal(6))
    loss = ad.neg_log_prob(ad.softmax_logits(ad.mul(v, v)), 1)
    ad.backward(loss)
    first = v.grad.copy()
    ad.backward(loss)
    np.testing.assert_array_equal(first, v.grad)


def test_constant_inputs_never_accumulate_gradient():
    c = ad.constant(np.ones(3))
    v = ad.parameter(np.ones(3))
    ad.backward(ad.sum_all(ad.mul(c, v)))
    assert c.grad is None
    assert v.grad is not None


def test_concat_promotes_scalars():
    parts = [ad.cosine_sim(ad.constant([1.0, 0.0]), ad.constant([1.0, 0.0])),
             ad.constant(2.5)]
    out = ad.concat(parts)
    assert out.shape == (2,)


def test_take_row_out_of_range():
    with pytest.raises(IndexError, match="take"):
        ad.take(ad.parameter(np.zeros((2, 3))), 2)
    with pytest.raises(IndexError, match="take"):
        ad.take(ad.parameter(np.zeros((2, 3))), -1)


def test_neg_log_prob_index_out_of_range():
    with pytest.raises(IndexError):
        ad.neg_log_prob(ad.constant([0.1, 0.2]), 2)


def test_add_shape_mismatch_raises():
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.constant(np.zeros(3)), ad.constant(np.zeros(4)))
