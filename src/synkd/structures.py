"""Learning-free chart algorithms over labeled spans.

Binarization (right-branching, null-labeled intermediates, unary chains
collapsed into composite labels) and CYK maximum search: one chart per batch
of sentences of any lengths, optionally with the Hamming cost to reference
trees folded in. All functions are pure. A BinTree owns the binarized
layout: its spans in post-order and their (child, parent) edges, which one
walk over the spans checks and records.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .syntax_data import NULL_LABEL, ConstTree, DataError

UNARY_SEP = "|"  # composite label glue for collapsed unary chains


@dataclass
class BinTree:
    """Full binary bracketing of (0, n) as a span -> label map.

    Spans are 0-based half-open and include the n leaf spans, so a tree over
    n tokens always holds exactly 2n-1 labeled spans. They must come in
    post-order (by end, then by start descending), as binarize and chart_max
    emit them, and edges holds one (child, parent) row of span indices per
    child, left child first; relabel a tree by rebuilding spans in the same
    order.
    """
    n: int
    spans: dict  # (i, j) -> label
    edges: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise DataError("empty tree")
        if len(self.spans) != 2 * self.n - 1:
            raise DataError(
                f"binary tree over {self.n} tokens needs {2 * self.n - 1} spans, "
                f"got {len(self.spans)}")
        self.edges = self._walk()
        self._rows = None  # (spans, their labels, rows) at the last read of rows

    def _walk(self):
        # in post-order an inner span's children are the last two spans still
        # without a parent (roots, as (start, index)). A walk that joins all
        # 2n - 1 spans has met the n leaves, so the roots tile (0, end of the
        # last span): a left child that starts where its parent does splits
        # it, and the last root is (0, n)
        edges, roots, n, start, end = [], [], self.n, 0, 0
        for v, (i, j) in enumerate(self.spans):
            if not 0 <= i < j <= n:
                raise DataError(f"span ({i}, {j}) outside (0, {n})")
            if j < end or j == end and i > start:
                raise DataError(f"span ({i}, {j}) out of post-order")
            if j - i > 1:
                if len(roots) < 2 or roots[-2][0] != i:
                    raise DataError(f"span ({i}, {j}) has no binary split")
                edges += (roots[-2][1], v, roots[-1][1], v)
                del roots[-2:]
            roots.append((i, v))
            start, end = i, j
        return np.array(edges, dtype=np.int64).reshape(-1, 2)

    @property
    def rows(self) -> np.ndarray:
        """(2n - 1, 3) int64 (i, j, label) rows of the spans in post-order;
        the labels must be ids. Cached until the spans or a label change."""
        labels = tuple(self.spans.values())
        if self._rows is None or self._rows[0] is not self.spans or self._rows[1] != labels:
            rows = np.array([(i, j, l) for (i, j), l in self.spans.items()], dtype=np.int64)
            self._rows = self.spans, labels, rows.reshape(-1, 3)
        return self._rows[2]


# ---------------------------------------------------------------------------
# binarization

def binarize(tree: ConstTree) -> BinTree:
    """Right-branching binarization.

    Intermediate nodes introduced to split >2-child nodes carry NULL_LABEL;
    unary chains collapse into composite labels joined by '|', making
    unbinarize an exact inverse.
    """
    spans, last = {}, None
    starts = []  # first leaf of each subtree whose parent is not reached yet
    for i, j, label in tree.spans():
        if (i, j) == last:  # the parent of a one-child node: a unary chain
            spans[last] = label + UNARY_SEP + spans[last]
            continue
        last = (i, j)
        k = len(starts)  # starts[k:] are the node's children
        while k and starts[k - 1] >= i:
            k -= 1
        # children 2 .. m-1 of m start the glue spans, inserted innermost first
        for s in reversed(starts[k + 1:-1]):
            spans[(s, j)] = NULL_LABEL
        spans[last] = label
        del starts[k:]
        starts.append(i)
    return BinTree(tree.n, spans)


def unbinarize(bt: BinTree, tokens) -> ConstTree:
    """Inverse of binarize over the given tokens: splice out null spans,
    unfold composite labels.

    The tree's spans are in post-order; a dropped null span leaves its
    children to its parent."""
    if len(tokens) != bt.n:
        raise DataError(f"token count {len(tokens)} != tree length {bt.n}")
    spans = []
    for (i, j), label in bt.spans.items():
        if label != NULL_LABEL or j - i == 1 or j - i == bt.n:
            spans += [(i, j, part) for part in reversed(label.split(UNARY_SEP))]
    return ConstTree._parsed(list(tokens), spans)


# ---------------------------------------------------------------------------
# span scores and the batched chart

@lru_cache(maxsize=None)
def span_order(n):
    """(i, j) arrays of every span 0 <= i < j <= n, by start, then end.

    Built once per n and shared by every caller, so both are read-only."""
    i, j = np.triu_indices(n + 1, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


class SpanScores:
    """Dense scores over every span (i, j), 0 <= i < j <= n, and every label.

    table[i, j, l] is the score of labeling span (i, j) with label l; entries
    with j <= i are ignored. Label 0 is the null label by the vocabulary
    convention, but the chart treats all labels alike.
    """

    def __init__(self, n: int, table: np.ndarray):
        if n < 1:
            raise DataError("empty sentence")
        table = np.asarray(table, dtype=np.float64)
        if table.shape[0] < n or table.shape[1] < n + 1 or table.ndim != 3:
            raise DataError(f"score table shape {table.shape} too small for n={n}")
        i, j = span_order(n)
        bad = np.flatnonzero(~np.isfinite(table[i, j]).all(axis=-1))
        if bad.size:
            raise DataError(f"non-finite score at span ({i[bad[0]]}, {j[bad[0]]})")
        self.n = n
        self.table = table


def tree_spans(trees) -> np.ndarray:
    """(i, j, label) rows of every tree's labeled spans, tree after tree."""
    return np.concatenate([t.rows for t in trees]) if trees else np.zeros((0, 3), np.int64)


def span_ids(lens, spans, n_labels) -> np.ndarray:
    """Flat ids into a batch's span rows (each sentence's spans in span_order,
    n_labels scores a row) of 2 n_b - 1 (i, j, label) spans per sentence b;
    span (i, j) of an n-token sentence is row i * n - i * (i - 1) / 2 + j - i - 1
    of its block."""
    lens = np.asarray(lens, dtype=np.int64)
    per, blocks = 2 * lens - 1, lens * (lens + 1) // 2
    if len(spans) != per.sum():
        raise DataError(f"{len(spans)} spans for trees over {lens.tolist()} tokens")
    i, j, label = np.asarray(spans, dtype=np.int64).T
    bad = np.flatnonzero((label < 0) | (label >= n_labels))
    if bad.size:
        raise DataError(f"span label {label[bad[0]]} outside score table ({n_labels} labels)")
    n, start = np.repeat(lens, per), np.repeat(np.cumsum(blocks) - blocks, per)
    return (start + i * n - i * (i - 1) // 2 + j - i - 1) * n_labels + label


def chart_max(lens, rows, cost_ref=None):
    """Best full binary bracketing of every sentence of a batch, in one chart.

    rows stacks each sentence's (n (n + 1) / 2, n_labels) span scores in
    span_order; cost_ref (flat ids of reference labeled spans into rows) adds
    1 to every other labeled span. Sentence b is padded to the longest and
    reads its result at (0, n_b), which is exact: a span's best score depends
    only on the spans inside it. Ties go to the lowest split, then the lowest
    label. Returns each sentence's best tree as 2 n_b - 1 (i, j, label) rows
    in post-order, sentence after sentence, and the (B,) best totals.
    """
    lens = np.asarray(lens, dtype=np.int64)
    if lens.size == 0 or lens.min() < 1:
        raise DataError("empty sentence")
    nb, n = lens.size, int(lens.max())
    i, j = span_order(n)
    b, pos = np.nonzero(j <= lens[:, None])  # span_order(n_b) is span_order(n) cut at n_b
    i, width = i[pos], j[pos] - i[pos]
    rows = np.asarray(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        k = bad[0]
        raise DataError(f"non-finite score at span ({i[k]}, {i[k] + width[k]}) of sentence {b[k]}")
    if cost_ref is not None:
        rows = rows + 1.0
        rows.reshape(-1)[cost_ref] -= 1.0

    # by_start[b, i, w] and by_end[b, i + w, w] hold the best score of span
    # (i, i + w) of sentence b (its label's score until width w is done), so
    # all splits of one width are two slices; split[b, i, w] is the left width
    label = np.zeros((nb, n, n + 1), dtype=np.int64)
    by_start, by_end = np.zeros((nb, n, n + 1)), np.zeros((nb, n + 1, n + 1))
    label[b, i, width] = best = rows.argmax(axis=1)
    by_start[b, i, width] = rows[np.arange(b.size), best]
    by_end[:, 1:, 1] = by_start[:, :, 1]
    split = np.zeros((nb, n, n + 1), dtype=np.int64)
    for w in range(2, n + 1):
        v = by_start[:, :n - w + 1, 1:w] + by_end[:, w:, w - 1:0:-1]
        split[:, :n - w + 1, w] = v.argmax(axis=2) + 1
        by_start[:, :n - w + 1, w] = by_end[:, w:, w] = v.max(axis=2) + by_start[:, :n - w + 1, w]

    # backtrace every sentence at once, one tree level per pass, then sort
    # the nodes into post-order: by sentence, then end, then start descending
    sent, lo, hi = np.arange(nb), np.zeros(nb, dtype=np.int64), lens
    levels = []
    while sent.size:
        levels.append((sent, lo, hi, label[sent, lo, hi - lo]))
        inner = hi - lo > 1
        sent, lo, hi = sent[inner], lo[inner], hi[inner]
        mid = lo + split[sent, lo, hi - lo]
        sent, lo, hi = np.tile(sent, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    sent, lo, hi, lab = (np.concatenate(part) for part in zip(*levels))
    out = np.stack([lo, hi, lab], axis=1)[np.lexsort((-lo, hi, sent))]
    return out, by_start[np.arange(nb), 0, lens]


def chart_trees(lens, spans):
    """BinTrees of the per-sentence span rows chart_max returns."""
    lens = np.asarray(lens).tolist()
    return [BinTree(m, {(i, j): l for i, j, l in part.tolist()})
            for m, part in zip(lens, np.split(spans, np.cumsum([2 * m - 1 for m in lens])[:-1]))]


def cyk_max(s: SpanScores):
    """Maximum-scoring full binary bracketing of one sentence; O(n^3 * |L|)."""
    spans, scores = chart_max([s.n], s.table[span_order(s.n)])
    return chart_trees([s.n], spans)[0], float(scores[0])


def cyk_augmented(s: SpanScores, ref: BinTree):
    """max over trees of Scr(t) + hamming(t, ref), hamming folded into the
    chart: every labeled span absent from ref gets +1, so the returned score
    is the augmented total."""
    ref_ids = span_ids([s.n], tree_spans([ref]), s.table.shape[2])
    spans, scores = chart_max([s.n], s.table[span_order(s.n)], ref_ids)
    return chart_trees([s.n], spans)[0], float(scores[0])
