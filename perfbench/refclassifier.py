"""Plain-numpy reference classifier, written apart from the attribank package.

Given the learner's raw arrays (keys, prompts, class tokens and the frozen
encoder weights), it recomputes attriclip predictions from the method's
definition:

    image map          z = W_image x  (toy backend) or z = x (lookup backend)
    routing            the C keys of smallest cosine distance 1 - cos(z, k),
                       ties broken toward the lowest bank index
    composition        selected prompts in routing order, then the class token
    text tower         (x + pos) -> bilinear scores / sqrt(d) -> row softmax
                       -> token mix -> mean over tokens -> W_proj
    prediction         cosine argmax over the candidate classes, ties broken
                       toward the lowest class id

It shares no code with the package, so the workload checks compare two
independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Guard under the square root of each norm, as the package documents it.
NORM_EPS = 1e-12

# Scores closer than this are a tie that float rounding may break either way.
TIE_TOLERANCE = 1e-9


@dataclass
class Weights:
    """The frozen encoder arrays the reference needs."""

    w_image: np.ndarray | None  # (d, width), None for the lookup backend
    pos: np.ndarray             # (max_tokens, d)
    w_mix: np.ndarray           # (d, d)
    w_proj: np.ndarray          # (d, d)

    @classmethod
    def from_encoders(cls, encoders) -> "Weights":
        theta, psi = encoders.weights.theta, encoders.weights.psi
        return cls(w_image=theta.get("w_image"), pos=psi["pos"],
                   w_mix=psi["w_mix"], w_proj=psi["w_proj"])


@dataclass
class TaskScore:
    hits: int
    ambiguous: int  # samples whose routing or class scores are within TIE_TOLERANCE
    total: int


def image_embeddings(x: np.ndarray, weights: Weights) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x if weights.w_image is None else x @ weights.w_image.T


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, d) x (M, d) -> (N, M) guarded cosine similarities."""
    na = np.sqrt(np.einsum("ij,ij->i", a, a) + NORM_EPS)
    nb = np.sqrt(np.einsum("ij,ij->i", b, b) + NORM_EPS)
    return (a @ b.T) / np.outer(na, nb)


def route(z: np.ndarray, keys: np.ndarray, c: int):
    """Top-c bank indices per row of z, plus a flag for near-tied routing."""
    dist = 1.0 - cosine_matrix(z, keys)
    order = np.argsort(dist, axis=1, kind="stable")
    ranked = np.take_along_axis(dist, order, axis=1)[:, :c + 1]
    near_tie = (np.diff(ranked, axis=1) < TIE_TOLERANCE).any(axis=1)
    return order[:, :c], near_tie


def text_tower(tokens: np.ndarray, weights: Weights) -> np.ndarray:
    """(B, s, d) token batches -> (B, d) text embeddings."""
    s, d = tokens.shape[1], tokens.shape[2]
    xp = tokens + weights.pos[:s]
    scores = (xp @ weights.w_mix) @ np.swapaxes(xp, 1, 2) / np.sqrt(d)
    scores -= scores.max(axis=2, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=2, keepdims=True)
    pooled = (attn @ xp).mean(axis=1)
    return pooled @ weights.w_proj.T


def class_text_embeddings(selection, prompts: np.ndarray, class_rows: np.ndarray,
                          weights: Weights) -> np.ndarray:
    """Embeddings of [prompts[selection] ; class token] for every candidate class."""
    k, d = class_rows.shape
    prefix = prompts[list(selection)].reshape(-1, d)
    tokens = np.concatenate(
        [np.broadcast_to(prefix, (k,) + prefix.shape), class_rows[:, None, :]], axis=1)
    return text_tower(tokens, weights)


def score_task(x: np.ndarray, labels, keys: np.ndarray, prompts: np.ndarray, c: int,
               class_tokens: dict, weights: Weights) -> TaskScore:
    """Hits of the attriclip classifier on one test set, over all classes in class_tokens."""
    candidates = sorted(class_tokens)
    class_rows = np.stack([np.asarray(class_tokens[cid], dtype=np.float64) for cid in candidates])
    z = image_embeddings(x, weights)
    selections, near_tie = route(z, np.asarray(keys, dtype=np.float64), c)
    prompts = np.asarray(prompts, dtype=np.float64)
    hits = ambiguous = 0
    groups: dict = {}
    for i, sel in enumerate(map(tuple, selections)):
        groups.setdefault(sel, []).append(i)
    for sel, rows in groups.items():
        text = class_text_embeddings(sel, prompts, class_rows, weights)
        sims = cosine_matrix(z[rows], text)
        top2 = np.sort(sims, axis=1)[:, -2:]
        tied = near_tie[rows]
        if sims.shape[1] > 1:
            tied = tied | (top2[:, 1] - top2[:, 0] < TIE_TOLERANCE)
        for r, row_sims, is_tied in zip(rows, sims, tied):
            if is_tied:
                ambiguous += 1
            elif candidates[int(np.argmax(row_sims))] == labels[r]:
                hits += 1
    return TaskScore(hits=hits, ambiguous=ambiguous, total=len(labels))


def row_mismatches(accuracy_row, test_sets, keys, prompts, c, class_tokens,
                   weights: Weights) -> list:
    """Compare a row of percent accuracies with the reference, task by task.

    ``test_sets`` holds one (features, labels) pair per task. An entry agrees
    when the package's hit count equals the reference's hits on unambiguous
    samples, give or take the ambiguous ones.
    """
    problems = []
    for s, (x, labels) in enumerate(test_sets):
        ref = score_task(x, labels, keys, prompts, c, class_tokens, weights)
        reported = float(accuracy_row[s]) * ref.total / 100.0
        hits = round(reported)
        if abs(reported - hits) > 1e-6:
            problems.append(f"task {s}: accuracy {accuracy_row[s]} is not a whole number "
                            f"of hits over {ref.total} samples")
        elif not ref.hits <= hits <= ref.hits + ref.ambiguous:
            problems.append(f"task {s}: package counts {hits} hits, reference {ref.hits} "
                            f"(+{ref.ambiguous} ambiguous) of {ref.total}")
    return problems
