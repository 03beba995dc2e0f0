"""Reference chains the fused code paths are pinned to, built on ``autodiff.record``.

The package computes the text tower, each loss term over the whole batch
and their weighted total as single fused tape nodes, all cosines through
``autodiff.cosines``. These finer primitives rebuild the same arithmetic
one operation per node; tests check each against central differences and
pin the package to them: the cosine kernel (as ``cosine_logits``, one
vector against K rows), the unshared text tower, the three loss terms and
the total (an ``add`` and ``scale`` chain) bit for bit, the prefix-shared
text tower (which sums in another order) within 1e-12 relative.
``text_tower`` is the per-sequence tower as a chain, and ``ChainTower`` the
stacked unshared tower as one such chain per sequence. ``classification_chain``,
``key_matching_chain`` and ``orthogonality_chain`` are the loss terms as
per-sample (per-pair) chains of ``cosine_logits``, ``take``, ``neg_log_prob``,
``abs``, ``sum``, ``mean`` and ``concat`` nodes. ``score`` is the one-key
form of ``bank.scores``, and ``predict_probabilities`` the softmax that
``classification_loss`` takes the log of.
"""

import numpy as np

from attribank import autodiff as ad
from attribank.bank import scores
from attribank.encoders import TokenSequence
from attribank.objective import TRIPLET_MARGIN


def _as_tensor(x) -> ad.Tensor:
    return x if isinstance(x, ad.Tensor) else ad.Tensor(x)


def add(a, b) -> ad.Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape and a.shape != () and b.shape != ():  # one side may be a scalar
        raise ad.ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = ad.Tensor(a.values + b.values)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        ga = g if a_shape == out.shape else np.asarray(g.sum())
        gb = g if b_shape == out.shape else np.asarray(g.sum())
        return ga, gb

    return ad.record("add", (a, b), out, grad_fn)


def scale(a, alpha: float) -> ad.Tensor:
    a = _as_tensor(a)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ad.NumericError(f"scale: non-finite factor {alpha}")
    out = ad.Tensor(a.values * alpha)

    def grad_fn(g):
        return (g * alpha,)

    return ad.record("scale", (a,), out, grad_fn)


def matmul(a, b) -> ad.Tensor:
    """Matrix product: 2-D x 2-D, 1-D x 2-D (vec-mat) or 2-D x 1-D (mat-vec)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim not in (1, 2) or b.values.ndim not in (1, 2):
        raise ad.ShapeError(f"matmul: ranks must be 1 or 2, got {a.shape} x {b.shape}")
    if a.values.ndim == 1 and b.values.ndim == 1:
        raise ad.ShapeError("matmul: use cosine_sim/mul for vector-vector products")
    if a.shape[-1] != b.shape[0]:
        raise ad.ShapeError(f"matmul: contraction mismatch {a.shape} x {b.shape}")
    av, bv = a.values, b.values
    out = ad.Tensor(av @ bv)

    def grad_fn(g):
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 1:  # (k,) @ (k,n) -> (n,)
            return bv @ g, np.outer(av, g)
        # (m,k) @ (k,) -> (m,)
        return np.outer(g, bv), av.T @ g

    return ad.record("matmul", (a, b), out, grad_fn)


def mul(a, b) -> ad.Tensor:
    """Elementwise product; one side may be a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ad.ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values
    out = ad.Tensor(av * bv)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        ga = g * bv
        gb = g * av
        if a_shape != out.shape:
            ga = np.asarray(ga.sum())
        if b_shape != out.shape:
            gb = np.asarray(gb.sum())
        return ga, gb

    return ad.record("mul", (a, b), out, grad_fn)


def transpose(a) -> ad.Tensor:
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ad.ShapeError(f"transpose: expects a matrix, got {a.shape}")

    def grad_fn(g):
        return (g.T,)

    return ad.record("transpose", (a,), ad.Tensor(a.values.T), grad_fn)


def cosine_sim(a, b) -> ad.Tensor:
    """Cosine similarity of two same-shape tensors, as a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ad.ShapeError(f"cosine_sim: shape mismatch {a.shape} vs {b.shape}")
    av = a.values.reshape(-1)
    bv = b.values.reshape(-1)
    na = np.sqrt(np.dot(av, av) + ad.NORM_EPS)
    nb = np.sqrt(np.dot(bv, bv) + ad.NORM_EPS)
    c = np.dot(av, bv) / (na * nb)
    a_shape = a.shape

    def grad_fn(g):
        gf = float(g)
        ga = gf * (bv / (na * nb) - (c / (na * na)) * av)
        gb = gf * (av / (na * nb) - (c / (nb * nb)) * bv)
        return ga.reshape(a_shape), gb.reshape(a_shape)

    return ad.record("cosine_sim", (a, b), ad.Tensor(c), grad_fn)


def cosine_logits(a, b, alpha: float) -> ad.Tensor:
    """The vector of ``alpha * cos(a, b_k)`` over the rows b_k of the (K, d) ``b``,
    as one node over ``autodiff.cosines``; bit-identical to concatenating
    ``scale(cosine_sim(a, take(b, k)), alpha)`` over k, in values and gradients."""
    a, b = _as_tensor(a), _as_tensor(b)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ad.NumericError(f"cosine_logits: non-finite factor {alpha}")
    if a.values.ndim != 1 or b.values.ndim != 2 or b.shape[1] != a.shape[0]:
        raise ad.ShapeError(f"cosine_logits: expects a (d,) vector and (K, d) rows, "
                            f"got {a.shape} and {b.shape}")
    if not b.shape[0]:
        raise ad.ShapeError("cosine_logits: no rows")
    c, grads = ad.cosines(a.values, b.values)

    def grad_fn(g):
        return grads(g * alpha, a.requires_grad, b.requires_grad)

    return ad.record("cosine_logits", (a, b), ad.Tensor(c * alpha), grad_fn)


def softmax_logits(a) -> ad.Tensor:
    """Numerically stable softmax along the last axis (vector or matrix rows)."""
    a = _as_tensor(a)
    if a.values.ndim not in (1, 2):
        raise ad.ShapeError(f"softmax_logits: rank must be 1 or 2, got {a.shape}")
    av = a.values
    e = np.exp(av - av.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return ad.record("softmax_logits", (a,), ad.Tensor(y), grad_fn)


def concat(tensors) -> ad.Tensor:
    """Concatenate along axis 0. Scalars are promoted to length-1 vectors."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ad.ShapeError("concat: empty input list")
    views = [t.values.reshape(1) if t.values.ndim == 0 else t.values for t in tensors]
    rank = views[0].ndim
    for v in views:
        if v.ndim != rank:
            raise ad.ShapeError(f"concat: mixed ranks {[w.shape for w in views]}")
        if v.shape[1:] != views[0].shape[1:]:
            raise ad.ShapeError(f"concat: trailing extents differ {[w.shape for w in views]}")
    lengths = [v.shape[0] for v in views]
    shapes = [t.shape for t in tensors]

    def grad_fn(g):
        offsets = np.cumsum([0] + lengths)
        return tuple(g[lo:hi].reshape(shape) for lo, hi, shape in zip(offsets, offsets[1:], shapes))

    return ad.record("concat", tuple(tensors), ad.Tensor(np.concatenate(views, axis=0)), grad_fn)


def take(a, index) -> ad.Tensor:
    """Row ``index`` of ``a`` along axis 0, or the rows of a list of distinct
    indices, in its order; the gradient goes only into the rows read."""
    a = _as_tensor(a)
    n = a.shape[0] if a.values.ndim else 0
    if isinstance(index, (int, np.integer)):
        index = int(index)
        ok = 0 <= index < n
    else:
        index = [int(i) for i in index]
        ok = len(set(index)) == len(index) and all(0 <= i < n for i in index)
    if not ok:
        raise IndexError(f"take: row {index} out of range or repeated for shape {a.shape}")

    def grad_fn(g):
        grad = np.zeros_like(a.values)
        grad[index] += g
        return (grad,)

    return ad.record("take", (a,), ad.Tensor(a.values[index]), grad_fn)


def neg_log_prob(logits, index: int) -> ad.Tensor:
    """Negative log softmax probability of one entry, computed stably.

    Equals logsumexp(logits) - logits[index]; gradient is softmax - onehot.
    """
    logits = _as_tensor(logits)
    if logits.values.ndim != 1:
        raise ad.ShapeError(f"neg_log_prob: expects a logits vector, got {logits.shape}")
    k = logits.size
    index = int(index)
    if not 0 <= index < k:
        raise IndexError(f"neg_log_prob: index {index} out of range for {k} logits")
    lv = logits.values
    m = lv.max()
    lse = m + np.log(np.exp(lv - m).sum())
    p = np.exp(lv - lse)

    def grad_fn(g):
        grad = p.copy()
        grad[index] -= 1.0
        return (float(g) * grad,)

    return ad.record("neg_log_prob", (logits,), ad.Tensor(lse - lv[index]), grad_fn)


def absolute(a) -> ad.Tensor:
    a = _as_tensor(a)
    av = a.values

    def grad_fn(g):
        return (g * np.sign(av),)

    return ad.record("abs", (a,), ad.Tensor(np.abs(av)), grad_fn)


def sum_all(a) -> ad.Tensor:
    a = _as_tensor(a)
    shape = a.shape

    def grad_fn(g):
        return (np.full(shape, float(g)),)

    return ad.record("sum", (a,), ad.Tensor(a.values.sum()), grad_fn)


def mean_all(a) -> ad.Tensor:
    a = _as_tensor(a)
    n = a.size
    shape = a.shape

    def grad_fn(g):
        return (np.full(shape, float(g) / n),)

    return ad.record("mean", (a,), ad.Tensor(a.values.mean()), grad_fn)


def text_tower(encoders, x) -> ad.Tensor:
    """The frozen text tower of one (s, d) token sequence, one primitive per step."""
    psi = encoders.weights.psi
    s, d = x.shape
    xp = add(x, ad.constant(psi["pos"][:s]))
    scores = scale(matmul(matmul(xp, ad.constant(psi["w_mix"])), transpose(xp)),
                      1.0 / np.sqrt(d))
    mixed = matmul(softmax_logits(scores), xp)
    pooled = matmul(ad.constant(np.full(s, 1.0 / s)), mixed)
    return matmul(ad.constant(psi["w_proj"]), pooled)


def stack(vectors) -> ad.Tensor:
    """(d,) tensors as the rows of one (n, d) tensor; no arithmetic."""

    def grad_fn(g):
        return tuple(g)

    return ad.record("stack", tuple(vectors), ad.Tensor(np.stack([v.values for v in vectors])),
                     grad_fn)


class ChainTower:
    """``encode_text`` of the stacked unshared tower, built as one ``text_tower``
    chain per sequence: every sequence reads its stack entries with its own
    ``take``s, as the training path did before it was one node."""

    def __init__(self, encoders):
        self.encoders = encoders

    def encode_text(self, seq, tails=None):
        x = seq.tokens
        if seq.rows is not None:
            return stack([text_tower(self.encoders, concat(
                [take(x, i) for i in seq.rows] + [tails.values[k:k + 1]]))
                for k in range(tails.shape[0])])
        return stack([text_tower(self.encoders, take(x, i)) for i in range(x.shape[0])])


def classification_chain(zs, labels, embs, groups, tau) -> ad.Tensor:
    """``classification_loss`` as B (cosine_logits, neg_log_prob) pairs and their mean."""
    which = {i: u for u, rows in enumerate(groups) for i in rows}
    nlls = [neg_log_prob(cosine_logits(ad.constant(z), embs[which[i]], 1.0 / tau), label)
            for i, (z, label) in enumerate(zip(zs, labels))]
    return mean_all(concat(nlls))


def key_matching_chain(zs, selections, bank, distance) -> ad.Tensor:
    """``key_matching_loss`` as one chain per sample: the selected keys' ``take``,
    their cosine logits, the distance (triplet's hinge as (x + |x|) / 2) and its
    sum; then the batch mean."""
    weight = 2.0 if distance == "mse" else 1.0
    sums = []
    for z, sel in zip(zs, selections):
        terms = add(cosine_logits(ad.constant(z), take(bank.keys, sel.indices), -weight),
                       weight)
        if distance == "triplet":
            terms = add(terms, TRIPLET_MARGIN - sel.negative)
            terms = scale(add(terms, absolute(terms)), 0.5)
        sums.append(sum_all(terms))
    return scale(sum_all(concat(sums)), 1.0 / len(selections))


def orthogonality_chain(bank, encoder) -> ad.Tensor:
    """``prompt_orthogonality_loss`` with one cosine_logits node per row of the
    upper triangle, each reading its rows with ``take``."""
    n = bank.n
    embs = encoder.encode_text(TokenSequence(bank.prompts))
    pairs = [cosine_logits(take(embs, i), take(embs, range(i + 1, n)), 1.0)
             for i in range(n - 1)]
    return scale(sum_all(absolute(concat(pairs))), 1.0 / (n * (n - 1)))


def score(z: np.ndarray, key: np.ndarray) -> float:
    """Cosine distance 1 - cos(z, key), in [0, 2]."""
    return float(scores(z, np.asarray(key, dtype=np.float64)[None])[0])


def predict_probabilities(z: np.ndarray, text_embeddings, tau: float) -> np.ndarray:
    """Softmax over cosine similarities at temperature tau (max-shifted)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = np.asarray(z, dtype=np.float64)
    embs = [np.asarray(w, dtype=np.float64) for w in text_embeddings]
    if not embs:
        raise ValueError("predict_probabilities: need at least one class embedding")
    if not np.isfinite(z).all() or any(not np.isfinite(w).all() for w in embs):
        raise ad.NumericError("predict_probabilities: non-finite embedding")
    logits = cosine_logits(z, embs, 1.0).values / tau
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()
