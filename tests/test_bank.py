import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attribank import autodiff as ad
from attribank.bank import (class_text_embeddings, compose_text_input, init_bank, route, scores,
                            select_top_c)
from attribank.encoders import FrozenEncoderPair

from conftest import rng
from reference import cosine_sim, score, sum_all


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
    sel = select_top_c(scores(z, bank.keys.values), 6)
    assert sorted(sel.indices) == list(range(6))
    dists = scores(z, bank.keys.values)[sel.indices]
    assert all(a <= b for a, b in zip(dists, dists[1:]))


def test_select_constructed_orthogonal_antipodal():
    bank = init_bank(3, 1, 2, seed=0)
    for i, row in enumerate([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]):
        bank.keys.values[i] = row
    z = np.array([1.0, 0.0])
    sel = select_top_c(scores(z, bank.keys.values), 2)
    assert sel.indices == [0, 1]
    np.testing.assert_allclose(scores(z, bank.keys.values)[sel.indices], [0.0, 1.0], atol=1e-9)


def test_select_matches_full_sort_oracle_1000_trials():
    for seed in range(1000):
        g = rng(seed)
        bank = init_bank(10, 1, 8, seed=seed)
        z = g.standard_normal(8)
        c = 3
        sel = select_top_c(scores(z, bank.keys.values), c)
        assert sel.indices == selection_oracle(z, bank.keys.values, c), f"seed {seed}"


def test_select_distances_match_score_recomputation():
    bank = init_bank(8, 1, 5, seed=3)
    z = rng(4).standard_normal(5)
    sel = select_top_c(scores(z, bank.keys.values), 4)
    for i, d in zip(sel.indices, scores(z, bank.keys.values)[sel.indices]):
        assert abs(d - score(z, bank.keys.values[i])) <= 1e-12


def test_select_tie_breaks_by_lowest_index():
    bank = init_bank(4, 1, 3, seed=0)
    v = np.array([1.0, 2.0, -0.5])
    bank.keys.values[:] = v  # every key at distance 0
    sel = select_top_c(scores(v, bank.keys.values), 2)
    assert sel.indices == [0, 1]


def test_select_c_out_of_range():
    bank = init_bank(3, 1, 4, seed=0)
    with pytest.raises(ValueError):
        select_top_c(scores(np.ones(4), bank.keys.values), 0)
    with pytest.raises(ValueError):
        select_top_c(scores(np.ones(4), bank.keys.values), 4)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(1e-3, 1e3))
def test_selection_invariant_under_positive_scaling(seed, alpha):
    bank = init_bank(7, 1, 6, seed=seed)
    z = rng(seed).standard_normal(6)
    keys = bank.keys.values
    assert (select_top_c(scores(z, keys), 3).indices
            == select_top_c(scores(alpha * z, keys), 3).indices)


def test_selected_distances_dominate_unselected():
    for seed in range(50):
        bank = init_bank(9, 1, 7, seed=seed)
        z = rng(seed).standard_normal(7)
        sel = select_top_c(scores(z, bank.keys.values), 4)
        unselected = [score(z, bank.keys.values[i])
                      for i in range(9) if i not in sel.indices]
        assert max(scores(z, bank.keys.values)[sel.indices]) <= min(unselected) + 1e-15


def test_scores_match_cosine_sim_chain_bit_for_bit():
    for seed in range(20):
        g = rng(seed)
        keys = g.standard_normal((10, 6))
        z = g.standard_normal(6)
        chain = np.array([1.0 - cosine_sim(z, k).values for k in keys])
        np.testing.assert_array_equal(scores(z, keys), chain)


def test_select_negative_matches_brute_force_1000_banks():
    for seed in range(1000):
        n = 2 + seed % 9
        c = 1 + seed % (n - 1)
        bank = init_bank(n, 1, 6, seed=seed)
        z = rng(seed).standard_normal(6)
        sel = select_top_c(scores(z, bank.keys.values), c)
        unselected = [i for i in range(n) if i not in sel.indices]
        assert sel.negative == min(score(z, bank.keys.values[i]) for i in unselected), seed
        oracle = min(1.0 - np_cosine(z, bank.keys.values[i]) for i in unselected)
        assert abs(sel.negative - oracle) <= 1e-9, seed


def test_select_negative_under_constructed_ties():
    bank = init_bank(5, 1, 3, seed=0)
    v = np.array([1.0, 2.0, -0.5])
    bank.keys.values[:4] = v  # keys 0-3 at distance 0, key 4 farther
    bank.keys.values[4] = -v
    sel = select_top_c(scores(v, bank.keys.values), 2)
    assert sel.indices == [0, 1]
    assert sel.negative == scores(v, bank.keys.values)[2]
    assert abs(sel.negative) < 1e-9
    sel = select_top_c(scores(v, bank.keys.values), 4)
    assert sel.indices == [0, 1, 2, 3]
    assert abs(sel.negative - 2.0) < 1e-9


def test_select_negative_is_none_when_every_key_is_selected():
    bank = init_bank(4, 1, 3, seed=1)
    assert select_top_c(scores(np.ones(3), bank.keys.values), 4).negative is None
    assert route(np.ones((1, 3)), init_bank(1, 1, 3, seed=1), 1)[0].negative is None


def test_route_on_a_stack_equals_per_image_routing_bit_for_bit():
    # One scores call covers the (B, d) stack, then one pick per row: every
    # row's indices and negative are those of routing its image alone.
    for seed in range(60):
        g = rng(seed)
        n = 2 + seed % 9
        bank = init_bank(n, 1, 6, seed=seed)
        keys = bank.keys.values
        zs = g.standard_normal((1 + seed % 33, 6))
        np.testing.assert_array_equal(scores(zs, keys), np.stack([scores(z, keys) for z in zs]))
        for c in sorted({1, max(1, n // 2), n - 1, n}):
            want = [select_top_c(scores(z, keys), c) for z in zs]
            got = route(zs, bank, c)
            assert [(s.indices, s.negative) for s in got] == \
                [(s.indices, s.negative) for s in want], (seed, c)
            assert c < n or all(s.negative is None for s in got)


def test_route_on_a_stack_under_constructed_ties():
    bank = init_bank(5, 1, 3, seed=0)
    v = np.array([1.0, 2.0, -0.5])
    bank.keys.values[:4] = v  # keys 0-3 tie with every image along v
    bank.keys.values[4] = -v
    zs = np.stack([v, 3.0 * v, -v, v + 1e-3])
    for c in (1, 2, 4, 5):
        got = route(zs, bank, c)
        want = [select_top_c(scores(z, bank.keys.values), c) for z in zs]
        assert [(s.indices, s.negative) for s in got] == [(s.indices, s.negative) for s in want]
    got = route(zs, bank, 2)
    assert [s.indices for s in got] == [[0, 1], [0, 1], [4, 0], [0, 1]]
    assert got[2].negative == scores(-v, bank.keys.values)[1]


def test_route_without_scoring_on_a_one_entry_bank_or_no_bank():
    zs = rng(3).standard_normal((4, 3))
    zs[1] = np.nan  # nothing is scored, so nothing checks it
    got = route(zs, init_bank(1, 1, 3, seed=1), 1)
    assert [(s.indices, s.negative) for s in got] == [([0], None)] * 4
    assert len({id(s) for s in got}) == 4
    assert route(zs, None, 2) == [None] * 4


def test_compose_minimal_lengths():
    bank = init_bank(2, 1, 4, seed=5)
    sel = select_top_c(scores(np.ones(4), bank.keys.values), 1)
    seq = compose_text_input(sel, bank.frozen_view())
    assert seq.tokens.values[seq.rows].shape == (1, 1, 4)
    np.testing.assert_array_equal(seq.tokens.values[seq.rows][0, 0],
                                  bank.prompts.values[sel.indices[0], 0])


def test_compose_reference_arity():
    bank = init_bank(10, 12, 16, seed=6)
    sel = select_top_c(scores(rng(7).standard_normal(16), bank.keys.values), 3)
    seq = compose_text_input(sel, bank.frozen_view())
    assert seq.tokens.values[seq.rows].shape == (3, 12, 16)


def test_compose_matches_list_append_oracle():
    for seed in range(20):
        bank = init_bank(5, 3, 6, seed=seed)
        sel = select_top_c(scores(rng(seed).standard_normal(6), bank.keys.values), 2)
        seq = compose_text_input(sel, bank.frozen_view())
        rows = []
        for i in sel.indices:
            rows.extend(list(bank.prompts.values[i]))
        np.testing.assert_array_equal(seq.tokens.values[seq.rows].reshape(-1, 6), np.stack(rows))


def test_compose_ignores_unselected_prompt_mutation():
    bank = init_bank(4, 2, 5, seed=8)
    z = rng(9).standard_normal(5)
    sel = select_top_c(scores(z, bank.keys.values), 2)
    seq = compose_text_input(sel, bank.frozen_view())
    before = seq.tokens.values[seq.rows].copy()
    untouched = [i for i in range(4) if i not in sel.indices]
    bank.prompts.values[untouched[0]] += 99.0
    seq = compose_text_input(sel, bank.frozen_view())
    after = seq.tokens.values[seq.rows]
    np.testing.assert_array_equal(before, after)


def test_compose_routes_gradient_to_selected_prompts_only():
    bank = init_bank(4, 2, 5, seed=10)
    z = rng(11).standard_normal(5)
    sel = select_top_c(scores(z, bank.keys.values), 2)
    seq = compose_text_input(sel, bank)
    assert seq.tokens is bank.prompts and seq.rows == sel.indices
    enc = FrozenEncoderPair(d=5, image_width=5, seed=11, max_tokens=8)
    ad.reset_tape()
    ad.backward(sum_all(enc.encode_text(seq, ad.constant(rng(12).standard_normal((3, 5))))))
    for i in range(4):
        if i in sel.indices:
            assert (bank.prompts.grad[i] != 0).all(), i
        else:
            np.testing.assert_array_equal(bank.prompts.grad[i], np.zeros((2, 5)))


def test_compose_dimension_mismatch():
    bank = init_bank(3, 2, 5, seed=12)
    sel = select_top_c(scores(np.ones(5), bank.keys.values), 1)
    enc = FrozenEncoderPair(d=5, image_width=5, seed=12, max_tokens=8)
    with pytest.raises(ad.ShapeError):
        class_text_embeddings(enc, bank, [sel], ad.constant(rng(0).standard_normal((2, 6))))


def test_class_text_embeddings_encode_each_selection_once_in_order_of_first_appearance():
    bank = init_bank(5, 2, 6, seed=13).frozen_view()
    enc = FrozenEncoderPair(d=6, image_width=6, seed=13, max_tokens=12)
    class_rows = ad.constant(rng(14).standard_normal((4, 6)))
    selections = route(rng(15).standard_normal((40, 6)), bank, 2)
    calls = []
    encode_text = enc.encode_text

    def counting_encode_text(seq, tails=None):
        calls.append(seq)
        return encode_text(seq, tails)

    enc.encode_text = counting_encode_text
    cache = {}
    embs, groups = class_text_embeddings(enc, bank, selections, class_rows, cache)
    distinct = list(dict.fromkeys(sel.index_tuple for sel in selections))
    assert len(distinct) > 1 and len(calls) == len(embs) == len(groups) == len(distinct)
    assert list(cache) == distinct and [cache[key] for key in distinct] == embs
    # The groups partition the images, each in increasing order, by their own routing.
    assert all(rows.dtype == np.int64 and (np.diff(rows) > 0).all() for rows in groups)
    assert sorted(np.concatenate(groups).tolist()) == list(range(len(selections)))
    for key, rows in zip(distinct, groups):
        assert rows.tolist() == [i for i, sel in enumerate(selections) if sel.index_tuple == key]
    for u, rows in enumerate(groups):
        for i in rows:
            want = encode_text(compose_text_input(selections[i], bank), class_rows).values
            np.testing.assert_array_equal(embs[u].values, want)

    again, groups_again = class_text_embeddings(enc, bank, selections[::-1], class_rows, cache)
    assert len(calls) == len(distinct)  # every selection a cache hit
    assert all(again[u] is cache[selections[::-1][i].index_tuple]
               for u, rows in enumerate(groups_again) for i in rows)

    # Without a bank every image shares the empty prefix.
    embs, groups = class_text_embeddings(enc, None, route(np.zeros((3, 6)), None, 2), class_rows)
    assert len(embs) == 1 and [rows.tolist() for rows in groups] == [[0, 1, 2]]
    assert len(calls) == len(distinct) + 1
