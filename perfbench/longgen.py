"""Long-sentence inputs for the long-analysis workload.

Each sentence joins k in [K_MIN, K_MAX] clauses from ``gen_synthetic`` under
one ``(S ...)`` root. The first clause keeps its dependency root; the root of
every later clause attaches to it with a ``conj`` arc. The sentence label is
the first clause's label. The benchmark writes the sentences as JSONL and the
program reads them with ``load_jsonl``, so its own validation checks every
tree.
"""
from __future__ import annotations

import numpy as np

from synkd.syntax_data import (
    ConstNode,
    ConstTree,
    DepTree,
    Example,
    Sentence,
    gen_synthetic,
)

K_MIN, K_MAX = 3, 5
CLAUSE_MAX_LEN = 12


def compose(clauses) -> Example:
    """One sentence from the given clauses, in order."""
    tokens, heads, labels = [], [], []
    root = None  # 1-based position of the first clause's root
    for clause in clauses:
        offset = len(tokens)
        for h, lab in zip(clause.dep.heads, clause.dep.labels):
            if h != 0:
                heads.append(h + offset)
                labels.append(lab)
            elif root is None:
                root = len(heads) + 1
                heads.append(0)
                labels.append(lab)
            else:
                heads.append(root)
                labels.append("conj")
        tokens.extend(clause.sent.tokens)
    con = ConstTree(ConstNode("S", [c.con.root for c in clauses]))
    ex = Example(Sentence(tokens), DepTree(heads, labels), con,
                 label=clauses[0].label)
    ex.validate()
    return ex


def long_corpus(n_sentences, seed):
    """n_sentences composed sentences; clause counts and clauses follow seed."""
    ks = np.random.default_rng([seed, 1]).integers(K_MIN, K_MAX + 1, size=n_sentences)
    clauses = gen_synthetic(int(ks.sum()), max_len=CLAUSE_MAX_LEN, seed=seed)
    out, pos = [], 0
    for k in ks:
        out.append(compose(clauses[pos:pos + k]))
        pos += k
    return out


def length_profile(examples) -> dict:
    lens = np.array([len(ex.sent) for ex in examples])
    return {"n": int(lens.size), "mean": float(lens.mean()), "max": int(lens.max()),
            "share_n_ge_30": float((lens >= 30).mean())}
