"""Brute-force oracles used by tests: exhaustive search over bracketings,
plus one tree-cell update with hand-set child states.

The search is deliberately independent of the chart code — plain Python
loops, first strict maximum kept, bracketings enumerated split-ascending /
left-major so the first maximum agrees with the documented chart tie-break
(lowest split, then lowest label id).
"""
import numpy as np

from synkd import tensor as T
from synkd.encoders import LevelKids
from synkd.structures import BinTree
from synkd.tensor import Tensor


def one_parent(cell, x, kids):
    """(h, c) of one parent with input row x and hand-set child states
    kids = [(h, c), ...] in slot order, through the cell's fused level kernel."""
    w, b, rec = cell.fuse()
    zero = Tensor(np.zeros((1, cell.hid), dtype=x.dtype))
    k = len(kids)
    level = LevelKids(np.zeros(k, dtype=np.int64), np.arange(k), np.arange(1, k + 1))
    return cell.level(rec, T.add(T.matmul(x, w), b), level,
                      T.concat([zero] + [h for h, _ in kids], axis=0),
                      T.concat([zero] + [c for _, c in kids], axis=0))


def all_bracketings(n):
    """Every full binary bracketing of (0, n) as a list of (i, j) spans."""
    memo = {}

    def shapes(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if j - i == 1:
            out = [[(i, j)]]
        else:
            out = []
            for k in range(i + 1, j):
                for left in shapes(i, k):
                    for right in shapes(k, j):
                        out.append([(i, j)] + left + right)
        memo[(i, j)] = out
        return out

    return shapes(0, n)


def enum_best(table, n, ref=None):
    """Exhaustive (tree, score) maximum, optionally hamming-augmented by ref."""
    best_tree, best_score = None, None
    for spans in all_bracketings(n):
        labeled = {}
        total = 0.0
        for (i, j) in spans:
            s_best, l_best = None, None
            for l in range(table.shape[2]):
                s = float(table[i, j, l])
                if ref is not None and ref.spans.get((i, j)) != l:
                    s += 1.0
                if s_best is None or s > s_best:
                    s_best, l_best = s, l
            labeled[(i, j)] = l_best
            total += s_best
        if best_score is None or total > best_score:
            best_tree, best_score = BinTree(n, labeled), total
    return best_tree, best_score


def catalan(n):
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def random_bintree(n, n_labels, rng):
    """Uniformly random bracketing shape with random labels."""
    shapes = all_bracketings(n)
    spans = shapes[rng.integers(len(shapes))]
    return BinTree(n, {s: int(rng.integers(n_labels)) for s in spans})


def random_table(n, n_labels, rng, scale=1.0):
    return (rng.standard_normal((n, n + 1, n_labels)) * scale).astype(np.float64)
