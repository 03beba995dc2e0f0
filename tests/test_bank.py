import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attribank import autodiff as ad
from attribank.bank import compose_text_input, init_bank, score, select_top_c
from attribank.encoders import TokenSequence

from conftest import rng


def np_cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def selection_oracle(z, key_rows, c):
    """Exhaustive sort by (distance, index)."""
    dists = [1.0 - np_cosine(z, k) for k in key_rows]
    order = sorted(range(len(key_rows)), key=lambda i: (dists[i], i))
    return order[:c]


def test_init_same_seed_bit_identical():
    a = init_bank(5, 3, 8, seed=42)
    b = init_bank(5, 3, 8, seed=42)
    np.testing.assert_array_equal(a.keys.values, b.keys.values)
    np.testing.assert_array_equal(a.prompts.values, b.prompts.values)


def test_init_shapes_at_reference_sizes():
    bank = init_bank(10, 12, 16, seed=0)
    assert bank.keys.shape == (10, 16)
    assert bank.prompts.shape == (10, 12, 16)


def test_init_key_norms_bounded_over_100_seeds():
    # Keys are N(0, 1/d) per entry, so norms concentrate near 1 for d=16.
    for seed in range(100):
        bank = init_bank(10, 2, 16, seed=seed)
        norms = np.linalg.norm(bank.keys.values, axis=1)
        assert norms.min() >= 0.3 and norms.max() <= 2.5


def test_init_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        init_bank(0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        init_bank(1, 1, -2, seed=0)


def test_score_identical_direction_is_zero():
    v = rng(0).standard_normal(6)
    assert abs(score(v, 3.0 * v)) < 1e-9


def test_score_orthogonal_is_one():
    assert abs(score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - 1.0) < 1e-12


def test_score_antipodal_is_two():
    assert abs(score(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) - 2.0) < 1e-9


def test_score_rejects_non_finite():
    with pytest.raises(ad.NumericError):
        score(np.array([np.nan, 1.0]), np.array([1.0, 0.0]))


def test_select_full_bank_returns_sorted_distances():
    bank = init_bank(6, 2, 8, seed=1)
    z = rng(2).standard_normal(8)
    sel = select_top_c(z, bank, 6)
    assert sorted(sel.indices) == list(range(6))
    assert all(a <= b for a, b in zip(sel.distances, sel.distances[1:]))


def test_select_constructed_orthogonal_antipodal():
    bank = init_bank(3, 1, 2, seed=0)
    for i, row in enumerate([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]):
        bank.keys.values[i] = row
    sel = select_top_c(np.array([1.0, 0.0]), bank, 2)
    assert sel.indices == [0, 1]
    np.testing.assert_allclose(sel.distances, [0.0, 1.0], atol=1e-9)


def test_select_matches_full_sort_oracle_1000_trials():
    for seed in range(1000):
        g = rng(seed)
        bank = init_bank(10, 1, 8, seed=seed)
        z = g.standard_normal(8)
        c = 3
        sel = select_top_c(z, bank, c)
        assert sel.indices == selection_oracle(z, bank.keys.values, c), f"seed {seed}"


def test_select_distances_match_score_recomputation():
    bank = init_bank(8, 1, 5, seed=3)
    z = rng(4).standard_normal(5)
    sel = select_top_c(z, bank, 4)
    for i, d in zip(sel.indices, sel.distances):
        assert abs(d - score(z, bank.keys.values[i])) <= 1e-12


def test_select_tie_breaks_by_lowest_index():
    bank = init_bank(4, 1, 3, seed=0)
    v = np.array([1.0, 2.0, -0.5])
    bank.keys.values[:] = v  # every key at distance 0
    sel = select_top_c(v, bank, 2)
    assert sel.indices == [0, 1]


def test_select_c_out_of_range():
    bank = init_bank(3, 1, 4, seed=0)
    with pytest.raises(ValueError):
        select_top_c(np.ones(4), bank, 0)
    with pytest.raises(ValueError):
        select_top_c(np.ones(4), bank, 4)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(1e-3, 1e3))
def test_selection_invariant_under_positive_scaling(seed, alpha):
    bank = init_bank(7, 1, 6, seed=seed)
    z = rng(seed).standard_normal(6)
    assert select_top_c(z, bank, 3).indices == select_top_c(alpha * z, bank, 3).indices


def test_selected_distances_dominate_unselected():
    for seed in range(50):
        bank = init_bank(9, 1, 7, seed=seed)
        z = rng(seed).standard_normal(7)
        sel = select_top_c(z, bank, 4)
        unselected = [score(z, bank.keys.values[i])
                      for i in range(9) if i not in sel.indices]
        assert max(sel.distances) <= min(unselected) + 1e-15


def class_seq(d, seed=0):
    return TokenSequence(ad.constant(rng(seed).standard_normal((1, d))))


def test_compose_minimal_lengths():
    bank = init_bank(2, 1, 4, seed=5)
    sel = select_top_c(np.ones(4), bank, 1)
    seq = compose_text_input(sel, bank, class_seq(4))
    assert seq.length == 2
    np.testing.assert_array_equal(seq.tokens.values[0], bank.prompts.values[sel.indices[0], 0])


def test_compose_reference_arity():
    bank = init_bank(10, 12, 16, seed=6)
    sel = select_top_c(rng(7).standard_normal(16), bank, 3)
    seq = compose_text_input(sel, bank, class_seq(16))
    assert seq.length == 3 * 12 + 1


def test_compose_matches_list_append_oracle():
    for seed in range(20):
        bank = init_bank(5, 3, 6, seed=seed)
        cls = class_seq(6, seed)
        sel = select_top_c(rng(seed).standard_normal(6), bank, 2)
        seq = compose_text_input(sel, bank, cls)
        rows = []
        for i in sel.indices:
            rows.extend(list(bank.prompts.values[i]))
        rows.extend(list(cls.tokens.values))
        np.testing.assert_array_equal(seq.tokens.values, np.stack(rows))


def test_compose_ignores_unselected_prompt_mutation():
    bank = init_bank(4, 2, 5, seed=8)
    z = rng(9).standard_normal(5)
    sel = select_top_c(z, bank, 2)
    before = compose_text_input(sel, bank, class_seq(5)).tokens.values.copy()
    untouched = [i for i in range(4) if i not in sel.indices]
    bank.prompts.values[untouched[0]] += 99.0
    after = compose_text_input(sel, bank, class_seq(5)).tokens.values
    np.testing.assert_array_equal(before, after)


def test_compose_routes_gradient_to_selected_prompts_only():
    bank = init_bank(4, 2, 5, seed=10)
    z = rng(11).standard_normal(5)
    sel = select_top_c(z, bank, 2)
    seq = compose_text_input(sel, bank, class_seq(5))
    ad.backward(ad.sum_all(seq.tokens))
    for i in range(4):
        if i in sel.indices:
            np.testing.assert_array_equal(bank.prompts.grad[i], np.ones((2, 5)))
        else:
            np.testing.assert_array_equal(bank.prompts.grad[i], np.zeros((2, 5)))


def test_compose_dimension_mismatch():
    bank = init_bank(3, 2, 5, seed=12)
    sel = select_top_c(np.ones(5), bank, 1)
    with pytest.raises(ad.ShapeError):
        compose_text_input(sel, bank, class_seq(6))
