"""Binarization round trips and CYK vs exhaustive enumeration."""
import numpy as np
import pytest

from oracles import all_bracketings, catalan, enum_best, random_bintree, random_table
from synkd import syntax_data as D
from synkd.structures import (BinTree, SpanScores, binarize, cyk_augmented,
                              cyk_max, hamming, score_tree, unbinarize)


def tree(text):
    (t,) = D.parse_bracketed(text)
    return t


# ---------------------------------------------------------------------------
# binarization

def test_binarize_already_binary():
    t = tree("(S (NP (Det the) (N cat)) (VP (V sees) (N cats)))")
    bt = binarize(t)
    assert bt.n == 4
    assert bt.labeled_spans() == set(
        [(0, 4, "S"), (0, 2, "NP"), (0, 1, "Det"), (1, 2, "N"),
         (2, 4, "VP"), (2, 3, "V"), (3, 4, "N")])


def test_binarize_ternary_adds_null_span():
    bt = binarize(tree("(X (A a) (B b) (C c))"))
    assert bt.spans[(1, 3)] == D.NULL_LABEL
    assert bt.spans[(0, 3)] == "X"
    assert len(bt.spans) == 5


def test_binarize_unary_chain_composite_label():
    t = tree("(S (VP (V runs)))")
    bt = binarize(t)
    assert bt.spans == {(0, 1): "S|VP|V"}
    assert unbinarize(bt) == t


def test_binarize_round_trip_random():
    for ex in D.gen_synthetic(100, seed=21):
        bt = binarize(ex.con)
        assert len(bt.spans) == 2 * ex.con.n - 1
        assert unbinarize(bt) == ex.con


def test_bintree_validation():
    with pytest.raises(D.DataError, match="spans"):
        BinTree(3, {(0, 3): "S", (0, 1): "a", (1, 2): "b", (2, 3): "c"})
    with pytest.raises(D.DataError, match="no binary split"):
        BinTree(3, {(0, 3): "S", (0, 2): "d", (1, 2): "b", (2, 3): "c", (1, 3): "e"})


# ---------------------------------------------------------------------------
# CYK

def test_cyk_n1():
    table = np.array([[[0.0, 0.0], [3.0, 5.0]]])
    t, score = cyk_max(SpanScores(1, table))
    assert score == 5.0
    assert t.spans == {(0, 1): 1}


def test_cyk_n2_unique_shape():
    rng = np.random.default_rng(0)
    table = random_table(2, 3, rng)
    t, score = cyk_max(SpanScores(2, table))
    expected = sum(table[i, j].max() for i, j in [(0, 1), (1, 2), (0, 2)])
    assert score == pytest.approx(expected, abs=1e-12)
    assert set(t.spans) == {(0, 1), (1, 2), (0, 2)}


def test_cyk_matches_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        n_labels = int(rng.integers(1, 4))
        table = random_table(n, n_labels, rng)
        got_t, got_s = cyk_max(SpanScores(n, table))
        exp_t, exp_s = enum_best(table, n)
        assert abs(got_s - exp_s) < 1e-9
        assert got_t == exp_t


def test_cyk_ties_resolved_low_split_low_label():
    n = 4
    table = np.zeros((n, n + 1, 2))
    t, score = cyk_max(SpanScores(n, table))
    exp_t, exp_s = enum_best(table, n)
    assert t == exp_t
    assert all(l == 0 for l in t.spans.values())
    assert t.split_of(0, 4) == 1  # lowest split at every level
    assert score == 0.0


def loop_chart(n, table):
    """The split loop span by span, the reference for the chart's tie-break:
    lowest split point, then lowest label."""
    best = np.full((n, n + 1), -np.inf)
    split = {}
    for i in range(n):
        best[i, i + 1] = table[i, i + 1].max()
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            acc, arg = -np.inf, -1
            for k in range(i + 1, j):
                if best[i, k] + best[k, j] > acc:
                    acc, arg = best[i, k] + best[k, j], k
            best[i, j] = acc + table[i, j].max()
            split[(i, j)] = arg
    spans = {}

    def walk(i, j):
        spans[(i, j)] = int(np.argmax(table[i, j]))
        if j - i > 1:
            walk(i, split[(i, j)])
            walk(split[(i, j)], j)

    walk(0, n)
    return BinTree(n, spans), float(best[0, n])


def test_cyk_matches_split_loop_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n, n_labels = int(rng.integers(1, 13)), int(rng.integers(1, 4))
        table = random_table(n, n_labels, rng)
        if rng.random() < 0.5:  # small integers: ties at every level
            table = np.round(table)
        assert cyk_max(SpanScores(n, table)) == loop_chart(n, table)


def test_cyk_dominates_arbitrary_trees():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 8))
        table = random_table(n, 3, rng)
        s = SpanScores(n, table)
        _, best = cyk_max(s)
        for _ in range(20):
            t = random_bintree(n, 3, rng)
            assert score_tree(s, t) <= best + 1e-12


def test_cyk_rejects_empty():
    with pytest.raises(D.DataError):
        SpanScores(0, np.zeros((0, 1, 1)))


def test_span_scores_reject_non_finite_in_span():
    table = np.zeros((3, 4, 2))
    table[2, 1, 0] = table[0, 0, 1] = np.nan  # j <= i: outside every span
    SpanScores(3, table)
    table[1, 3, 1] = np.inf
    with pytest.raises(D.DataError, match=r"span \(1, 3\)"):
        SpanScores(3, table)


# ---------------------------------------------------------------------------
# augmented CYK and hamming

def test_augmented_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        n_labels = int(rng.integers(2, 4))
        table = random_table(n, n_labels, rng)
        ref = random_bintree(n, n_labels, rng)
        got_t, got_s = cyk_augmented(SpanScores(n, table), ref)
        exp_t, exp_s = enum_best(table, n, ref=ref)
        assert abs(got_s - exp_s) < 1e-9
        assert got_t == exp_t


def test_augmented_at_least_plain_max():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        table = random_table(n, 3, rng)
        s = SpanScores(n, table)
        ref = random_bintree(n, 3, rng)
        assert cyk_augmented(s, ref)[1] >= cyk_max(s)[1] - 1e-12


def test_augmented_margin_satisfied_returns_ref():
    rng = np.random.default_rng(13)
    n = 5
    ref = random_bintree(n, 3, rng)
    table = random_table(n, 3, rng, scale=0.1)
    for (i, j), l in ref.spans.items():
        table[i, j, l] += 50.0
    s = SpanScores(n, table)
    t, aug = cyk_augmented(s, ref)
    assert t == ref
    assert aug - score_tree(s, t) == pytest.approx(0.0, abs=1e-9)


def test_augmented_uniform_zero_n3_matches_bruteforce():
    n = 3
    table = np.zeros((n, n + 1, 2))
    ref = binarize(tree("(S (A a) (X (B b) (C c)))")).map_labels(lambda l: 0)
    got_t, got_s = cyk_augmented(SpanScores(n, table), ref)
    exp_t, exp_s = enum_best(table, n, ref=ref)
    assert got_s == exp_s
    assert got_t == exp_t


def test_augmented_n2_label_only():
    n = 2
    table = np.zeros((n, n + 1, 2))
    ref = BinTree(2, {(0, 1): 0, (1, 2): 0, (0, 2): 0})
    t, aug = cyk_augmented(SpanScores(n, table), ref)
    assert set(t.spans) == {(0, 1), (1, 2), (0, 2)}
    # every span prefers the non-ref label for its +1 bonus
    assert all(l == 1 for l in t.spans.values())
    assert aug == 3.0


def test_hamming_identities():
    rng = np.random.default_rng(17)
    t = random_bintree(5, 3, rng)
    assert hamming(t, t) == 0
    other = BinTree(t.n, {s: (l + 1) % 3 for s, l in t.spans.items()})
    assert hamming(t, other) == len(t.spans)
    with pytest.raises(D.DataError):
        hamming(t, random_bintree(4, 3, rng))


def test_hamming_zero_iff_equal():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = random_bintree(4, 2, rng)
        b = random_bintree(4, 2, rng)
        assert (hamming(a, b) == 0) == (a == b)


def test_hamming_equals_dp_bookkeeping():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        table = random_table(n, 3, rng)
        s = SpanScores(n, table)
        ref = random_bintree(n, 3, rng)
        t, aug = cyk_augmented(s, ref)
        assert aug - score_tree(s, t) == pytest.approx(hamming(t, ref), abs=1e-9)


def test_catalan_counts():
    for n in range(1, 9):
        assert len(all_bracketings(n)) == catalan(n - 1)
