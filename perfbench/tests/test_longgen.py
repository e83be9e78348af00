import numpy as np

from synkd.syntax_data import gen_synthetic, load_jsonl, save_jsonl

from longgen import K_MAX, K_MIN, compose, length_profile, long_corpus


def test_compose_joins_clauses_under_one_root():
    clauses = gen_synthetic(3, seed=4)
    ex = compose(clauses)
    sizes = [len(c.sent) for c in clauses]
    assert ex.sent.tokens == sum((c.sent.tokens for c in clauses), [])
    assert ex.con.root.label == "S"
    assert [c.label for c in ex.con.root.children] == ["S"] * 3
    assert ex.label == clauses[0].label
    root = clauses[0].dep.heads.index(0) + 1
    assert ex.dep.heads.count(0) == 1 and ex.dep.heads[root - 1] == 0
    assert ex.dep.labels[root - 1] == "root"
    offset = 0
    for k, clause in enumerate(clauses):
        for i, (h, lab) in enumerate(zip(clause.dep.heads, clause.dep.labels)):
            got_h = ex.dep.heads[offset + i]
            got_lab = ex.dep.labels[offset + i]
            if h != 0:
                assert (got_h, got_lab) == (h + offset, lab)
            elif k > 0:
                assert (got_h, got_lab) == (root, "conj")
        offset += sizes[k]


def test_corpus_is_seeded_and_uses_three_to_five_clauses():
    a = long_corpus(40, seed=5)
    assert [ex.sent.tokens for ex in a] == [ex.sent.tokens for ex in long_corpus(40, seed=5)]
    assert [ex.sent.tokens for ex in a] != [ex.sent.tokens for ex in long_corpus(40, seed=6)]
    ks = [len(ex.con.root.children) for ex in a]
    assert min(ks) >= K_MIN and max(ks) <= K_MAX and len(set(ks)) == 3


def test_written_corpus_loads_with_program_validation(tmp_path):
    path = tmp_path / "long.jsonl"
    save_jsonl(long_corpus(30, seed=2), path)
    loaded = load_jsonl(path)
    profile = length_profile(loaded)
    assert len(loaded) == profile["n"] == 30
    lens = np.array([len(ex.sent) for ex in loaded])
    assert profile["max"] == lens.max() and profile["mean"] == lens.mean()
    assert profile["share_n_ge_30"] == (lens >= 30).mean()
    assert lens.min() >= 3 * 4  # every clause has at least four tokens
