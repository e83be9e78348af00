"""Binarization round trips and CYK vs exhaustive enumeration."""
import numpy as np
import pytest

from oracles import (all_bracketings, catalan, enum_best, random_bintree, random_table,
                     reference_check_bintree, reference_con_edges, split_of)
from synkd import syntax_data as D
from synkd.structures import (BinTree, SpanScores, binarize, chart_max, chart_trees,
                              cyk_augmented, cyk_max, span_ids, span_order, tree_spans,
                              unbinarize)


def tree(text):
    (t,) = D.parse_bracketed(text)
    return t


def ids(n, t, n_labels):
    """Flat ids of t's labeled spans in the span rows of an n-token sentence."""
    return span_ids([n], tree_spans([t]), n_labels)


def score_tree(table, t):
    """Scr(t) read through the flat span ids of the batched layout."""
    rows = table[span_order(t.n)]
    return float(rows.reshape(-1)[ids(t.n, t, table.shape[2])].sum())


def hamming(t, ref):
    """Labeled spans of t absent from ref, counted on flat span ids as the
    structured hinge counts them."""
    n_labels = 1 + max(max(t.spans.values()), max(ref.spans.values()))
    return int(np.isin(ids(t.n, t, n_labels), ids(t.n, ref, n_labels), invert=True).sum())


# ---------------------------------------------------------------------------
# binarization

def test_binarize_already_binary():
    t = tree("(S (NP (Det the) (N cat)) (VP (V sees) (N cats)))")
    bt = binarize(t)
    assert bt.n == 4
    assert bt.spans == {(0, 4): "S", (0, 2): "NP", (0, 1): "Det", (1, 2): "N",
                        (2, 4): "VP", (2, 3): "V", (3, 4): "N"}


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


def random_post_order(rng, i, j):
    """Spans of a random full binary bracketing of (i, j), in post-order."""
    if j - i == 1:
        return [(i, j)]
    k = int(rng.integers(i + 1, j))
    return random_post_order(rng, i, k) + random_post_order(rng, k, j) + [(i, j)]


def single_mutants(rng, n, spans):
    """A tree's spans with one span dropped, added or moved; an endpoint
    shifted by one; a span made empty, reversed or out of (0, n)."""
    k = int(rng.integers(len(spans)))
    (i, j), rest = spans[k], spans[:k] + spans[k + 1:]
    a, b = sorted(rng.integers(0, n + 1, size=2).tolist())  # (a, a) is empty
    yield rest
    yield spans + [(a, b)]
    yield rest + [(a, b)]
    for d in (-1, 1):
        yield rest + [(i + d, j)]
        yield rest + [(i, j + d)]
    yield from (rest + [s] for s in [(i, i), (j, i), (i, n + 1), (-1, j)])


def test_bintree_walk_matches_recursive_check_and_con_edges():
    # random trees over 1..12 tokens and single mutations of them, each in a
    # shuffled insertion order: the one-walk check raises iff the recursive
    # one does, and a tree keeps its spans in post-order with the edges the
    # sorting walk gives
    rng = np.random.default_rng(61)
    kept = rejected = 0
    for n in range(1, 13):
        for _ in range(30):
            tree = random_post_order(rng, 0, n)
            for spans in [tree, *single_mutants(rng, n, tree)]:
                labels = {spans[p]: int(p) for p in rng.permutation(len(spans))}
                try:
                    reference_check_bintree(n, labels)
                except D.DataError:
                    with pytest.raises(D.DataError):
                        BinTree(n, dict(labels))
                    rejected += 1
                    continue
                bt = BinTree(n, dict(labels))
                order, edges = reference_con_edges(labels)
                assert list(bt.spans) == order
                assert spans is not tree or order == tree
                assert bt.spans == labels
                np.testing.assert_array_equal(bt.edges, edges)
                kept += 1
    assert kept > 400 and rejected > 3000


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
    assert split_of(t.spans, 0, 4) == 1  # lowest split at every level
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


def batch_rows(tables, lens):
    """A batch's span rows: each table's spans in span_order, table after table."""
    return np.concatenate([t[span_order(n)] for t, n in zip(tables, lens)])


def random_split_tree(n, n_labels, rng):
    """A random bracketing by random splits; unlike random_bintree it does not
    enumerate all bracketings, which takes seconds at n = 12."""
    spans, todo = {}, [(0, n)]
    while todo:
        i, j = todo.pop()
        spans[(i, j)] = int(rng.integers(n_labels))
        if j - i > 1:
            k = int(rng.integers(i + 1, j))
            todo += [(i, k), (k, j)]
    return BinTree(n, spans)


def test_batched_chart_matches_split_loop_bitwise():
    # mixed lengths in one chart, n = 1 beside n = 12, with and without the
    # hamming cost; the cost is the chart's +1 / -1 on the table
    rng = np.random.default_rng(31)
    for k in range(24):
        lens = [1, 12] + [int(n) for n in rng.integers(1, 13, size=int(rng.integers(0, 6)))]
        lens = [int(n) for n in rng.permutation(lens)]
        n_labels = int(rng.integers(1, 4))
        tables = [random_table(n, n_labels, rng) for n in lens]
        if k % 2:  # small integers: ties at every level
            tables = [np.round(t) for t in tables]
        refs = [random_split_tree(n, n_labels, rng) for n in lens]
        for cost in (False, True):
            ref_ids = span_ids(lens, tree_spans(refs), n_labels) if cost else None
            spans, scores = chart_max(lens, batch_rows(tables, lens), ref_ids)
            for t, score, table, ref, n in zip(chart_trees(lens, spans), scores, tables,
                                               refs, lens):
                if cost:
                    table = table + 1.0
                    for (i, j), l in ref.spans.items():
                        table[i, j, l] -= 1.0
                assert (t, float(score)) == loop_chart(n, table)


def test_batched_chart_rejects_bad_input():
    rng = np.random.default_rng(37)
    lens = [2, 3]
    rows = batch_rows([random_table(n, 2, rng) for n in lens], lens)
    bad = rows.copy()
    bad[3 + 3, 1] = np.nan  # sentence 1, span (1, 2)
    with pytest.raises(D.DataError, match=r"span \(1, 2\) of sentence 1"):
        chart_max(lens, bad)
    with pytest.raises(D.DataError, match="empty"):
        chart_max([2, 0], rows[:3])
    refs = [random_bintree(n, 2, rng) for n in lens]
    refs[1].spans[(0, 3)] = 2
    with pytest.raises(D.DataError, match="label 2 outside"):
        span_ids(lens, tree_spans(refs), 2)
    with pytest.raises(D.DataError, match="label 2 outside"):
        cyk_augmented(SpanScores(3, random_table(3, 2, rng)), refs[1])
    with pytest.raises(D.DataError, match="spans for trees"):
        span_ids([2, 2], tree_spans(refs), 3)


def test_cyk_dominates_arbitrary_trees():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 8))
        table = random_table(n, 3, rng)
        _, best = cyk_max(SpanScores(n, table))
        for _ in range(20):
            t = random_bintree(n, 3, rng)
            assert score_tree(table, t) <= best + 1e-12


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


def test_span_order_shared_and_read_only():
    i, j = span_order(4)
    assert span_order(4)[0] is i  # one cached pair per n
    np.testing.assert_array_equal(np.stack([i, j]), np.triu_indices(5, 1))
    for a in (i, j):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 3
    np.testing.assert_array_equal(span_order(4)[0], np.triu_indices(5, 1)[0])


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
    t, aug = cyk_augmented(SpanScores(n, table), ref)
    assert t == ref
    assert aug - score_tree(table, t) == pytest.approx(0.0, abs=1e-9)


def test_augmented_uniform_zero_n3_matches_bruteforce():
    n = 3
    table = np.zeros((n, n + 1, 2))
    # the binarized "(S (A a) (X (B b) (C c)))" with every label 0
    ref = BinTree(3, {(0, 1): 0, (1, 2): 0, (2, 3): 0, (1, 3): 0, (0, 3): 0})
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
        ref = random_bintree(n, 3, rng)
        t, aug = cyk_augmented(SpanScores(n, table), ref)
        assert aug - score_tree(table, t) == pytest.approx(hamming(t, ref), abs=1e-9)


def test_catalan_counts():
    for n in range(1, 9):
        assert len(all_bracketings(n)) == catalan(n - 1)
