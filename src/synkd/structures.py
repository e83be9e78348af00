"""Learning-free chart algorithms over labeled spans.

Binarization (right-branching, null-labeled intermediates, unary chains
collapsed into composite labels), CYK maximum search, loss-augmented CYK
with the hamming cost folded into the chart, and hamming distance between
binary trees as labeled span sets. All functions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .syntax_data import NULL_LABEL, ConstNode, ConstTree, DataError

UNARY_SEP = "|"  # composite label glue for collapsed unary chains


@dataclass
class BinTree:
    """Full binary bracketing of (0, n) as a span -> label map.

    Spans are 0-based half-open and include the n leaf spans, so a tree over
    n tokens always holds exactly 2n-1 labeled spans.
    """
    n: int
    spans: dict  # (i, j) -> label
    tokens: list | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DataError("empty tree")
        if len(self.spans) != 2 * self.n - 1:
            raise DataError(
                f"binary tree over {self.n} tokens needs {2 * self.n - 1} spans, "
                f"got {len(self.spans)}")
        if (0, self.n) not in self.spans:
            raise DataError(f"root span (0, {self.n}) missing")
        self._check_binary(0, self.n)

    def _check_binary(self, i, j):
        if j - i == 1:
            if (i, j) not in self.spans:
                raise DataError(f"leaf span ({i}, {j}) missing")
            return
        for k in range(i + 1, j):
            if (i, k) in self.spans and (k, j) in self.spans:
                self._check_binary(i, k)
                self._check_binary(k, j)
                return
        raise DataError(f"span ({i}, {j}) has no binary split")

    def split_of(self, i, j):
        for k in range(i + 1, j):
            if (i, k) in self.spans and (k, j) in self.spans:
                return k
        raise DataError(f"span ({i}, {j}) has no binary split")

    def labeled_spans(self):
        return {(i, j, l) for (i, j), l in self.spans.items()}

    def map_labels(self, fn):
        return BinTree(self.n, {s: fn(l) for s, l in self.spans.items()},
                       tokens=self.tokens)


# ---------------------------------------------------------------------------
# binarization

def binarize(tree: ConstTree) -> BinTree:
    """Right-branching binarization.

    Intermediate nodes introduced to split >2-child nodes carry NULL_LABEL;
    unary chains collapse into composite labels joined by '|', making
    unbinarize an exact inverse.
    """
    spans = {}

    def visit(node, start):
        if node.is_leaf:
            spans[(start, start + 1)] = node.label
            return start + 1, node.label
        if len(node.children) == 1:
            end, child_label = visit(node.children[0], start)
            label = node.label + UNARY_SEP + child_label
            spans[(start, end)] = label
            return end, label
        end = seq(node.children, start)
        spans[(start, end)] = node.label
        return end, node.label

    def seq(children, start):
        # chain children right-branching; the glue spans get the null label
        end, _ = visit(children[0], start)
        if len(children) == 1:
            return end
        rest_end = seq(children[1:], end)
        if len(children) > 2:
            spans[(end, rest_end)] = NULL_LABEL
        return rest_end

    end, _ = visit(tree.root, 0)
    return BinTree(end, spans, tokens=tree.leaves())


def unbinarize(bt: BinTree, tokens=None) -> ConstTree:
    """Inverse of binarize: splice out null spans, unfold composite labels."""
    tokens = tokens if tokens is not None else bt.tokens
    if tokens is None:
        raise DataError("unbinarize needs tokens (none stored on the tree)")
    if len(tokens) != bt.n:
        raise DataError(f"token count {len(tokens)} != tree length {bt.n}")

    def wrap_unary(label, node_builder):
        parts = label.split(UNARY_SEP)
        node = node_builder(parts[-1])
        for lab in reversed(parts[:-1]):
            node = ConstNode(lab, children=[node])
        return node

    def build(i, j):
        label = bt.spans[(i, j)]
        if j - i == 1:
            return wrap_unary(label, lambda lab: ConstNode(lab, word=tokens[i]))
        kids = children(i, j)
        return wrap_unary(label, lambda lab: ConstNode(lab, children=kids))

    def children(i, j):
        k = bt.split_of(i, j)
        out = []
        for a, b in ((i, k), (k, j)):
            if b - a > 1 and bt.spans[(a, b)] == NULL_LABEL:
                out.extend(children(a, b))
            else:
                out.append(build(a, b))
        return out

    root_label = bt.spans[(0, bt.n)]
    if root_label == NULL_LABEL and bt.n > 1:
        root = ConstNode(NULL_LABEL, children=children(0, bt.n))
    else:
        root = build(0, bt.n)
    return ConstTree(root)


# ---------------------------------------------------------------------------
# span scores

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
        i, j = np.triu_indices(n + 1, 1)
        bad = np.flatnonzero(~np.isfinite(table[i, j]).all(axis=-1))
        if bad.size:
            raise DataError(f"non-finite score at span ({i[bad[0]]}, {j[bad[0]]})")
        self.n = n
        self.table = table

    @property
    def n_labels(self):
        return self.table.shape[2]


def score_tree(s: SpanScores, t: BinTree) -> float:
    """Scr(t): sum of each chosen span's assigned-label score."""
    if t.n != s.n:
        raise DataError(f"tree length {t.n} != scores length {s.n}")
    return float(sum(s.table[i, j, l] for (i, j), l in t.spans.items()))


def _chart_max(n, table):
    """Shared CYK core over a dense (i, j, l) table.

    Tie-breaks deterministically: lowest split point, then lowest label id
    (argmax returns the first maximum).
    """
    best_label = np.argmax(table, axis=2)
    label_score = np.take_along_axis(
        table, best_label[:, :, None], axis=2)[:n, :n + 1, 0]

    # by_start[i, w] and by_end[i + w, w] hold the best score of span (i, i + w),
    # so all splits of one width are two slices; split[i, w] is the left width
    by_start = np.zeros((n, n + 1))
    by_end = np.zeros((n + 1, n + 1))
    split = np.zeros((n, n + 1), dtype=np.int64)
    by_start[:, 1] = by_end[1:, 1] = np.diagonal(label_score, 1)
    for w in range(2, n + 1):
        v = by_start[:n - w + 1, 1:w] + by_end[w:, w - 1:0:-1]
        split[:n - w + 1, w] = v.argmax(axis=1) + 1
        by_start[:n - w + 1, w] = by_end[w:, w] = v.max(axis=1) + np.diagonal(label_score, w)

    spans = {}

    def walk(i, j):
        spans[(i, j)] = int(best_label[i, j])
        if j - i > 1:
            k = i + split[i, j - i]
            walk(i, k)
            walk(k, j)

    walk(0, n)
    return BinTree(n, spans), float(by_start[0, n])


def cyk_max(s: SpanScores):
    """Maximum-scoring full binary bracketing; O(n^3 * |L|)."""
    return _chart_max(s.n, s.table)


def cyk_augmented(s: SpanScores, ref: BinTree):
    """max over trees of Scr(t) + hamming(t, ref), hamming folded into the chart.

    Every labeled span absent from ref gets +1, so the returned score is the
    augmented total.
    """
    if ref.n != s.n:
        raise DataError(f"reference length {ref.n} != scores length {s.n}")
    aug = s.table.copy()
    aug[:s.n, :s.n + 1, :] += 1.0
    for (i, j), l in ref.spans.items():
        if not 0 <= l < s.n_labels:
            raise DataError(f"reference label {l} outside score table")
        aug[i, j, l] -= 1.0
    return _chart_max(s.n, aug)


def hamming(t: BinTree, ref: BinTree) -> int:
    """Labeled spans of t absent from ref (one-sided, label-sensitive)."""
    if t.n != ref.n:
        raise DataError(f"tree lengths differ: {t.n} vs {ref.n}")
    return sum(1 for (i, j), l in t.spans.items() if ref.spans.get((i, j)) != l)
