"""Dataset model, parsers, synthetic generator, JSONL round trip."""
import hashlib
import json
import re

import numpy as np
import pytest

from oracles import (check_laminar, random_bracketed, record_mutants, reference_gen_synthetic,
                     reference_parse_bracketed, subject_number)
from synkd import syntax_data as D


def test_vocab_reserved_and_order_independent():
    a = D.Vocab.build([["b", "a", "a"], ["c"]])
    b = D.Vocab.build([["c"], ["a", "b", "a"]])
    assert a.itos == b.itos
    assert a.itos[:3] == ["<pad>", "<unk>", "<mask>"]
    assert a.itos[3] == "a"  # most frequent first
    assert a.itos[4:] == ["b", "c"]  # ties broken lexicographically
    np.testing.assert_array_equal(a.encode(["a", "zzz"]), [3, D.UNK])


def test_label_vocab_null_reserved():
    lv = D.LabelVocab.build(["NP", "S", "VP"], reserve_null=True)
    assert lv.itos[0] == D.NULL_LABEL
    assert lv.itos == [D.NULL_LABEL, "NP", "S", "VP"]
    with pytest.raises(D.DataError):
        lv.encode(["XP"])


# ---------------------------------------------------------------------------
# dependency trees

def test_dep_tree_validation():
    with pytest.raises(D.DataError, match="cycle at token 1"):
        D.DepTree([2, 1], ["a", "b"])
    with pytest.raises(D.DataError, match="cycle at token 2"):
        D.DepTree([0, 3, 2], ["a", "b", "c"])
    with pytest.raises(D.DataError, match="head out of range"):
        D.DepTree([0, 7], ["a", "b"])
    with pytest.raises(D.DataError, match="multiple roots"):
        D.DepTree([0, 0], ["root", "root"])


def test_validate_heads_long_chain():
    n = 2000
    D.validate_heads([0] + list(range(1, n)))  # token k + 1 hangs off token k
    D.validate_heads(list(range(2, n + 1)) + [0])  # the root comes last
    with pytest.raises(D.DataError, match="^cycle at token 1$"):
        D.validate_heads(list(range(2, n + 1)) + [n // 2])


def _first_cycle_token(heads):
    """The first token whose walk to the root never ends, by walking every
    token up to n steps (the quadratic check that `validate_heads` replaced)."""
    n = len(heads)
    for i in range(1, n + 1):
        cur, steps = i, 0
        while cur != 0 and steps <= n:
            cur, steps = heads[cur - 1], steps + 1
        if cur != 0:
            return i
    return None


@pytest.mark.parametrize("heads, token", [
    ([1], 1),
    ([2, 1], 1),
    ([0, 3, 2], 2),
    ([0, 2], 2),
    ([0, 1, 4, 5, 3], 3),
    ([3, 0, 4, 5, 4], 1),
    ([0, 1, 2, 5, 4], 4),
    ([0, 4, 2, 3], 2),
    ([0, 3, 3, 1], 2),
])
def test_validate_heads_cycle_token(heads, token):
    assert _first_cycle_token(heads) == token
    with pytest.raises(D.DataError) as err:
        D.validate_heads(heads)
    assert str(err.value) == f"cycle at token {token}"


def test_validate_heads_names_first_cycle_on_random_heads():
    rng = np.random.default_rng(21)
    cycles = 0
    for _ in range(400):
        n = int(rng.integers(1, 9))
        root = int(rng.integers(n))  # one root, so a cycle is the only fault
        heads = [0 if k == root else int(rng.integers(1, n + 1)) for k in range(n)]
        token = _first_cycle_token(heads)
        if token is None:
            D.validate_heads(heads)
            continue
        cycles += 1
        with pytest.raises(D.DataError) as err:
            D.validate_heads(heads)
        assert str(err.value) == f"cycle at token {token}"
    assert cycles > 100


# ---------------------------------------------------------------------------
# bracketed parsing

def test_bracketed_two_leaves():
    (tree,) = D.parse_bracketed("(S (NP a) (VP b))")
    assert tree.n == 2
    assert set(tree.spans()) == {(0, 2, "S"), (0, 1, "NP"), (1, 2, "VP")}
    assert tree.leaves() == ["a", "b"]


def test_bracketed_unbalanced_offset():
    with pytest.raises(D.DataError, match="offset 6"):
        D.parse_bracketed("((S a)")


def test_bracketed_empty_node():
    with pytest.raises(D.DataError, match="empty node"):
        D.parse_bracketed("(S ())")
    with pytest.raises(D.DataError, match="mixes"):
        D.parse_bracketed("(S x (NP y))")


@pytest.mark.parametrize("text, message", [
    ("x (S a)", "expected '(' at offset 0"),
    ("(S a) )", "expected '(' at offset 6"),
    ("(S a b)", "node 'S' has multiple words at offset 7"),
    ("(S )", "empty node 'S' at offset 4"),
    ("( (A a) (B b))", "unlabeled node must wrap one subtree at offset 14"),
    ("(S (A a)", "unexpected end of input at offset 8"),
])
def test_bracketed_errors_name_offset(text, message):
    with pytest.raises(D.DataError) as err:
        D.parse_bracketed(text)
    assert str(err.value) == message


def test_bracketed_multiple_trees_and_unicode():
    trees = D.parse_bracketed("(A x)  (B (C é) (D ß))")
    assert [t.n for t in trees] == [1, 2]
    assert trees[1].leaves() == ["é", "ß"]


def test_bracketed_render_round_trip_random():
    rng = np.random.default_rng(5)
    for ex in D.gen_synthetic(50, seed=11):
        text = D.render_bracketed(ex.con)
        (back,) = D.parse_bracketed(text)
        assert back == ex.con
        assert D.render_bracketed(back) == text
        # the parser's own leaves and spans match a walk of the built tree
        assert back.leaves() == ex.con.leaves() and back.spans() == ex.con.spans()
        (wrapped,) = D.parse_bracketed(f"( {text} )")
        assert wrapped.spans() == ex.con.spans()
    del rng


def _parse_or_error(parse, text):
    try:
        return parse(text)
    except D.DataError as e:
        return str(e)


def _assert_parses_like_reference(text):
    want = _parse_or_error(reference_parse_bracketed, text)
    got = _parse_or_error(D.parse_bracketed, text)
    if isinstance(want, str):
        assert got == want, text
        return
    assert not isinstance(got, str), (text, got)
    assert [D.render_bracketed(t) for t in got] == [D.render_bracketed(t) for t in want], text
    assert [t.leaves() for t in got] == [t.leaves() for t in want], text
    assert [t.spans() for t in got] == [t.spans() for t in want], text
    assert got == want, text


def _mutations(text):
    """Every deletion of one character and every replacement or insertion of
    one of "(", ")", " " and "x" at each position, in order."""
    for i in range(len(text) + 1):
        if i < len(text):
            yield text[:i] + text[i + 1:]
        for c in "() x":
            if i < len(text):
                yield text[:i] + c + text[i + 1:]
            yield text[:i] + c + text[i:]


@pytest.mark.parametrize("text", [
    "", "   ", "(", ")", "()", "( )", "((", "(()", "(( (A a)))", "( (A a))", "((A a))",
    "(S ())", "(S (()))", "(( ))", "(S (A a) ( ))", "(A a)(B b)", "(A a) x", "(A (B b) x)",
    "(A x (B b))", "(A\tx\n)", "( A  x )", "(A(B b)(C c))", "(A a b c)", "(S (A a)",
    "((S a)", "x (S a)", "(S a) )", "(S a b)", "(S )", "( (A a) (B b))", "(A a))",
])
def test_bracketed_matches_reference_on_pinned_cases(text):
    _assert_parses_like_reference(text)


def test_bracketed_matches_reference_on_generated_and_mutated_text():
    rng = np.random.default_rng(17)
    texts = [D.render_bracketed(ex.con) for ex in D.gen_synthetic(60, seed=19)]
    texts += [D.render_bracketed(ex.partner.con)
              for ex in D.gen_synthetic(10, seed=19, task="pair")]
    texts += [random_bracketed(rng) for _ in range(120)]
    texts += [f"( {t} )" for t in texts[::10]] + [f"(({t}))" for t in texts[5::10]]
    for text in texts:
        _assert_parses_like_reference(text)
    checked = errors = 0
    for text in texts[::12]:
        for bad in _mutations(text):
            _assert_parses_like_reference(bad)
            checked += 1
            errors += isinstance(_parse_or_error(D.parse_bracketed, bad), str)
    assert checked > 2000 and 0 < errors < checked


# ---------------------------------------------------------------------------
# synthetic generator

def test_gen_counts_and_invariants():
    exs = D.gen_synthetic(100, seed=7)
    assert len(exs) == 100
    for ex in exs:
        ex.validate()
        assert 4 <= len(ex.sent) <= 12


def test_gen_label_is_function_of_tree():
    for ex in D.gen_synthetic(200, seed=3):
        assert ex.label == _agreement_from_tree(ex.con)


def _agreement_from_tree(con):
    # recompute the stored label from the gold tree alone
    subj_np = next(c for c in con.root.children if c.label == "NP")
    noun = subj_np.children[1].word
    vp = next(c for c in con.root.children if c.label == "VP")
    verb = vp.children[0].word
    n_sg = any(noun == sg for sg, _ in D.NOUNS)
    v_sg = any(verb == sg for sg, _ in D.VERBS)
    return int(n_sg == v_sg)


def test_gen_class_balance():
    exs = D.gen_synthetic(1000, seed=1)
    frac = sum(ex.label for ex in exs) / len(exs)
    assert 0.4 <= frac <= 0.6


def test_gen_deterministic():
    a = [D.example_to_dict(e) for e in D.gen_synthetic(30, seed=9)]
    b = [D.example_to_dict(e) for e in D.gen_synthetic(30, seed=9)]
    assert a == b


def test_gen_dep_trees_valid_and_rooted_at_verb():
    for ex in D.gen_synthetic(50, seed=2):
        root_pos = ex.dep.heads.index(0)
        assert ex.dep.labels[root_pos] == "root"
        verbs = {s for s, _ in D.VERBS} | {p for _, p in D.VERBS}
        assert ex.sent.tokens[root_pos] in verbs


def test_gen_pair_and_tag_variants():
    pairs = D.gen_synthetic(40, seed=4, task="pair")
    for ex in pairs:
        assert ex.payload_kind() == "pair"
        num = lambda t: subject_number(next(
            c for c in t.con.root.children if c.label == "NP"))
        assert ex.label == int(num(ex) == num(ex.partner))
    tags = D.gen_synthetic(40, seed=4, task="tag")
    for ex in tags:
        assert ex.payload_kind() == "tag"
        assert len(ex.tags) == len(ex.sent)
        assert ex.tags.count("B-SUBJ") == 1
        assert ex.sent.tokens[ex.predicate] in {w for pair in D.VERBS for w in pair}


def _corpus_view(examples):
    return [(D.example_to_dict(ex), ex.con.spans(),
             ex.partner.con.spans() if ex.partner else None) for ex in examples]


@pytest.mark.parametrize("task", ["cls", "pair", "tag"])
def test_gen_equals_node_building_reference(task):
    # the span-emitting generator makes the corpus of the node-building one,
    # draw for draw, for every length bound and grammar size
    for seed in (0, 5, 11):
        for max_len in (4, 6, 12, 20):
            for size in (1, 2, 5, 8):
                want, _ = reference_gen_synthetic(12, max_len, seed, task, size)
                got = D.gen_synthetic(12, max_len, seed, task, size)
                assert _corpus_view(got) == _corpus_view(want), (seed, max_len, size)
    # small corpora often miss the class balance and are drawn again
    retried = 0
    for seed in range(8):
        want, attempt = reference_gen_synthetic(10, 12, seed, task)
        assert _corpus_view(D.gen_synthetic(10, 12, seed, task)) == _corpus_view(want)
        retried += attempt >= 1
    assert retried or task == "tag"


class _CountingRng:
    """A generator that counts its uniform draws: two per sentence drawn."""

    def __init__(self, rng):
        self.rng, self.uniforms = rng, 0

    def random(self):
        self.uniforms += 1
        return self.rng.random()

    def integers(self, *args):
        return self.rng.integers(*args)


def test_gen_redraws_sentences_longer_than_max_len(monkeypatch):
    # at max_len 4 only a bare subject with an adverb fits, so most drawn
    # sentences are rejected and drawn again
    rngs, make = [], np.random.default_rng

    def counting_rng(seed):
        rngs.append(_CountingRng(make(seed)))
        return rngs[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    got = D.gen_synthetic(20, max_len=4, seed=3, task="tag")
    monkeypatch.undo()
    assert {len(ex.sent) for ex in got} == {4}
    assert sum(r.uniforms for r in rngs) > 4 * 2 * len(got)
    want, _ = reference_gen_synthetic(20, 4, 3, "tag")
    assert _corpus_view(got) == _corpus_view(want)


def test_gen_builds_no_const_nodes(monkeypatch):
    # sentences are emitted as leaves and post-order spans; nodes are built
    # only when a tree's root is read
    built, init = [], D.ConstNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(D.ConstNode, "__init__", counting_init)
    corpora = [D.gen_synthetic(30, seed=21, task=task) for task in ("cls", "pair", "tag")]
    assert built == []
    corpora[1][0].partner.con.root  # the counter does see nodes built on a read of root
    assert len(built) == len(corpora[1][0].partner.con.spans())


# SHA-256 of the JSONL bytes of gen_synthetic(30, max_len=12, seed=20, task=...);
# a drift the reference generator would share, such as a change of numpy's
# random streams, changes them
CORPUS_DIGESTS = {
    "cls": "5fa09e38fd80a2485584b1f3e2cb6e0b4d427818e062b2122891e4ac9034f304",
    "pair": "c9fbcf9b02fc31e34ec1dbadf7e0af2838c6041976747200f5defca8e1b5f893",
    "tag": "cf1fee24527bde5ab745f1d9942cb71088a9f457aa1d8e0978ccc1735ab6b095",
}


@pytest.mark.parametrize("task", sorted(CORPUS_DIGESTS))
def test_gen_corpus_digest(task, tmp_path):
    path = tmp_path / f"{task}.jsonl"
    D.save_jsonl(D.gen_synthetic(30, max_len=12, seed=20, task=task), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORPUS_DIGESTS[task]


def test_gen_guards():
    with pytest.raises(D.DataError, match="max_len"):
        D.gen_synthetic(10, max_len=25)
    with pytest.raises(D.DataError, match="degenerate grammar"):
        D.gen_synthetic(10, grammar_size=0)


# ---------------------------------------------------------------------------
# JSONL round trip

def test_jsonl_round_trip(tmp_path):
    for task in ("cls", "pair", "tag"):
        exs = D.gen_synthetic(20, seed=13, task=task)
        p = tmp_path / f"{task}.jsonl"
        D.save_jsonl(exs, p)
        back = D.load_jsonl(p)
        assert [D.example_to_dict(e) for e in back] == [D.example_to_dict(e) for e in exs]


def test_jsonl_unicode_round_trip(tmp_path):
    ex = D.Example(
        D.Sentence(["héllo", "wörld"]),
        D.DepTree([0, 1], ["root", "dep"]),
        D.parse_bracketed("(S (A héllo) (B wörld))")[0],
        label=1,
    )
    p = tmp_path / "u.jsonl"
    D.save_jsonl([ex], p)
    (back,) = D.load_jsonl(p)
    assert back.sent.tokens == ["héllo", "wörld"]


def test_jsonl_length_mismatch_names_line(tmp_path):
    exs = D.gen_synthetic(3, seed=1)
    p = tmp_path / "bad.jsonl"
    D.save_jsonl(exs, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    import json
    d = json.loads(lines[1])
    d["dep_heads"] = d["dep_heads"][:-1]
    lines[1] = json.dumps(d)
    p.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(D.DataError, match="line 2"):
        D.load_jsonl(p)


def test_jsonl_validation_errors_name_line(tmp_path):
    exs = D.gen_synthetic(2, seed=1, task="tag")
    records = [D.example_to_dict(ex) for ex in exs]
    records[1]["predicate"] = 99
    p = tmp_path / "pred.jsonl"
    p.write_text("".join(json.dumps(d) + "\n" for d in records), encoding="utf-8")
    with pytest.raises(D.DataError, match="^line 2: predicate index 99 out of range$"):
        D.load_jsonl(p)
    (pair,) = D.gen_synthetic(1, seed=1, task="pair")
    d = D.example_to_dict(pair)
    d["pair_tokens"] = d["pair_tokens"][::-1]
    p.write_text(json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(D.DataError,
                       match="^line 1: partner constituency leaves do not match tokens$"):
        D.load_jsonl(p)


def test_jsonl_missing_payload_names_line(tmp_path):
    exs = D.gen_synthetic(1, seed=1)
    import json
    d = D.example_to_dict(exs[0])
    del d["label"]
    p = tmp_path / "np.jsonl"
    p.write_text(json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(D.DataError, match="line 1.*payload"):
        D.load_jsonl(p)


@pytest.mark.parametrize("task, key, value", [
    ("cls", "label", 0.5), ("cls", "label", True), ("cls", "label", "1"),
    ("cls", "label", -1), ("cls", "label", None), ("pair", "label", 1.0),
    ("pair", "label", -2), ("tag", "predicate", None), ("tag", "predicate", False),
    ("tag", "predicate", "0"), ("tag", "predicate", -1), ("tag", "predicate", 0.0),
])
def test_jsonl_integer_fields_checked(tmp_path, task, key, value):
    # label and predicate are taken only as non-negative non-bool integers
    records = [D.example_to_dict(ex) for ex in D.gen_synthetic(2, seed=4, task=task)]
    records[1][key] = value
    p = tmp_path / "ints.jsonl"
    p.write_text("".join(json.dumps(d) + "\n" for d in records), encoding="utf-8")
    with pytest.raises(D.DataError,
                       match=f"^line 2: {key} must be a non-negative integer, got "):
        D.load_jsonl(p)


@pytest.mark.parametrize("key, value, message", [
    ("dep_heads", ["1", "0"], "dep_heads must be a list of integers"),
    ("dep_heads", [True, 0], "dep_heads must be a list of integers"),
    ("con_tree", 7, "con_tree must be a string"),
    ("tokens", 5, "tokens must be a list of strings"),
    ("dep_labels", None, "dep_labels must be a list of strings"),
    ("tags", "OOO", "tags must be a list of strings"),
    ("pair_tokens", ["a", 1], "pair_tokens must be a list of strings"),
    ("pair_con_tree", ["(S a)"], "pair_con_tree must be a string"),
])
def test_jsonl_field_types_checked(tmp_path, key, value, message):
    task = "tag" if key == "tags" else "pair" if key.startswith("pair_") else "cls"
    records = [D.example_to_dict(ex) for ex in D.gen_synthetic(2, seed=4, task=task)]
    records[1][key] = value
    p = tmp_path / "types.jsonl"
    p.write_text("".join(json.dumps(d) + "\n" for d in records), encoding="utf-8")
    with pytest.raises(D.DataError) as err:
        D.load_jsonl(p)
    assert str(err.value) == f"line 2: {message}"


def _load_record_by_record(path):
    """load_jsonl's reference: example_from_dict over each non-blank line."""
    out = []
    for ln, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if line.strip():
            try:
                d = json.loads(line)
            except json.JSONDecodeError as e:
                raise D.DataError(f"line {ln}: invalid JSON ({e.msg})") from None
            out.append(D.example_from_dict(d, where=f"line {ln}"))
    return out


def _outcome(load, path):
    try:
        return load(path)
    except D.DataError as e:
        return str(e)


def test_jsonl_mutated_records_load_equal_or_name_their_line(tmp_path):
    # every mutant either loads as exactly the record written (an unknown
    # field aside) or fails as a DataError naming its line, and either way
    # as the record-by-record reference does, wherever the mutant sits
    rng = np.random.default_rng(29)
    p = tmp_path / "mutant.jsonl"
    loaded = failed = 0
    for task in ("cls", "pair", "tag"):
        good = [D.example_to_dict(ex) for ex in D.gen_synthetic(3, seed=8, task=task)]
        for i, mutant in enumerate(record_mutants(good[1], rng)):
            k = i % 3  # the mutant takes line k + 1
            lines = good[:k] + [mutant] + good[k + 1:]
            p.write_text("".join(json.dumps(d) + "\n" for d in lines), encoding="utf-8")
            got = _outcome(D.load_jsonl, p)
            assert got == _outcome(_load_record_by_record, p), mutant
            if isinstance(got, str):
                assert got.startswith(f"line {k + 1}: "), (mutant, got)
                failed += 1
                continue
            mutant.pop("note", None)
            assert (json.dumps(D.example_to_dict(got[k]), sort_keys=True)
                    == json.dumps(mutant, sort_keys=True)), mutant
            loaded += 1
    assert loaded > 50 and failed > 600


def _mutate_text(rng, text):
    """text with one to three random edits (a paren, space, word, control
    character or newline put in, a character dropped, or a stretch cut), or
    with one that keeps its leaves: a preterminal "(L w)" made a bare word,
    wrapped unlabeled, followed by an empty node or merged with the next, or
    a ")" moved."""
    edit = int(rng.integers(10))
    if edit < 5:
        pre = r"\((\S+) ([^\s()]+)\)"
        found = list(re.finditer(f"{pre} {pre}" if edit == 3 else pre, text))
        if not found:
            return text
        m = found[int(rng.integers(len(found)))]
        new = (f"({m[1]} {m[2]} {m[4]})" if edit == 3
               else [m[2], f"( {m[0]} )", f"{m[0]} (X )", None, f"{m[0]})"][edit])
        return text[:m.start()] + new + text[m.end():len(text) - (edit == 4)]
    pieces = ["(", ")", " ", "  ", "x", "NP", "\t", "\x1c", "\x0b", "\u00a0", "\u2003",
              "\x01", "é", "((", "))", "\n"]
    for _ in range(int(rng.integers(1, 4))):
        i, j = sorted(int(x) for x in rng.integers(len(text) + 1, size=2))
        op = rng.random()
        if op < 0.4:
            text = text[:i] + pieces[int(rng.integers(len(pieces)))] + text[i:]
        elif op < 0.8:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + text[j:]
    return text


def test_jsonl_mutated_trees_and_heads_load_like_record_by_record(tmp_path):
    # the batched pass parses all trees and checks all head lists of a file
    # at once; whatever a record's tree or heads hold, the file loads to the
    # examples, or fails with the message, of the record-by-record reference
    rng = np.random.default_rng(31)
    p = tmp_path / "mutant.jsonl"
    outcomes = {"loaded": 0, "failed": 0}
    for trial in range(450):
        task = ("cls", "pair", "tag")[trial % 3]
        records = [D.example_to_dict(ex) for ex in D.gen_synthetic(4, seed=trial, task=task)]
        d = records[int(rng.integers(4))]
        side = "pair_" if task == "pair" and rng.random() < 0.5 else ""
        r = rng.random()
        if r < 0.55:
            d[side + "con_tree"] = _mutate_text(rng, d[side + "con_tree"])
        elif r < 0.65:
            d[side + "con_tree"] = "( " + d[side + "con_tree"] + " )"  # a PTB wrapper
        elif r < 0.75:
            d[side + "con_tree"] = random_bracketed(rng)
        elif r < 0.95:
            heads = d[side + "dep_heads"]
            heads[int(rng.integers(len(heads)))] = (int(rng.integers(-1, len(heads) + 2))
                                                    if rng.random() < 0.9 else 10 ** 30)
        else:
            d[side + "dep_labels"] = d[side + "dep_labels"][:-1]
        p.write_text("".join(json.dumps(x, ensure_ascii=trial % 2 == 0) + "\n"
                             for x in records), encoding="utf-8")
        got = _outcome(D.load_jsonl, p)
        assert got == _outcome(_load_record_by_record, p), d
        outcomes["failed" if isinstance(got, str) else "loaded"] += 1
    assert outcomes["loaded"] > 80 and outcomes["failed"] > 250, outcomes


@pytest.mark.parametrize("task", ["cls", "pair", "tag"])
@pytest.mark.parametrize("max_len", [12, 20])
def test_jsonl_batched_load_equals_record_by_record(tmp_path, task, max_len):
    p = tmp_path / "corpus.jsonl"
    D.save_jsonl(D.gen_synthetic(60, max_len=max_len, seed=37, task=task), p)
    want = _load_record_by_record(p)
    assert D.load_jsonl(p) == want
    # PTB wrappers "( (S ...) )" and extra spacing load the same
    p.write_text("".join(json.dumps({k: f"( {v.replace(' ', '  ')} )" if k.endswith("con_tree")
                                     else v for k, v in json.loads(line).items()}) + "\n"
                         for line in p.read_text(encoding="utf-8").splitlines()),
                 encoding="utf-8")
    assert D.load_jsonl(p) == _load_record_by_record(p) == want


@pytest.mark.parametrize("texts, tokens", [
    # non-ASCII whitespace splits words for the parser: "a\u2003b" is two
    (["(S (A a\u2003b))"], [["a"]]),
    (["(S (A a\u00a0b))"], [["a"]]),
    # a text holding the batched pass's own text separator
    (["(A a) \x01 (B b)", "(B b)"], [["a"], ["b"]]),
])
def test_jsonl_batch_reads_odd_texts_as_the_parser_does(tmp_path, texts, tokens):
    p = tmp_path / "odd.jsonl"
    p.write_text("".join(json.dumps({"tokens": t, "dep_heads": [0], "dep_labels": ["root"],
                                     "con_tree": text, "label": 0}) + "\n"
                         for text, t in zip(texts, tokens)), encoding="utf-8")
    want = _outcome(_load_record_by_record, p)
    assert isinstance(want, str) and _outcome(D.load_jsonl, p) == want


def test_jsonl_well_formed_corpus_never_takes_the_record_by_record_path(tmp_path,
                                                                        monkeypatch):
    def record_by_record(d, where="record"):
        raise AssertionError(f"{where} was read record by record")

    paths = []
    for task in ("cls", "pair", "tag"):
        paths.append(tmp_path / f"{task}.jsonl")
        D.save_jsonl(D.gen_synthetic(40, max_len=20, seed=41, task=task), paths[-1])
    # a chain as deep as its 33 tokens: the ancestor walk must reach its root
    chain = D.Example(D.Sentence(["w"] * 33), D.DepTree(list(range(33)), ["dep"] * 33),
                      D.parse_bracketed("(S" + " (A w)" * 33 + ")")[0], label=0)
    paths.append(tmp_path / "chain.jsonl")
    D.save_jsonl([chain] + D.gen_synthetic(3, seed=43), paths[-1])
    want = [_load_record_by_record(p) for p in paths]
    monkeypatch.setattr(D, "example_from_dict", record_by_record)
    assert [D.load_jsonl(p) for p in paths] == want


# ---------------------------------------------------------------------------
# laminarity

def test_check_laminar():
    check_laminar([(0, 3, "S"), (0, 1, "A"), (1, 3, "B")], 3)
    with pytest.raises(D.DataError, match="crossing"):
        check_laminar([(0, 3, "S"), (0, 2, "A"), (1, 3, "B")], 3)
    with pytest.raises(D.DataError, match="cover"):
        check_laminar([(0, 1, "A")], 2)


def test_generated_and_loaded_trees_are_laminar(tmp_path):
    for task in ("cls", "pair", "tag"):
        exs = D.gen_synthetic(60, max_len=20, seed=23, task=task)
        D.save_jsonl(exs, tmp_path / f"{task}.jsonl")
        for ex in exs + D.load_jsonl(tmp_path / f"{task}.jsonl"):
            for side in (ex, ex.partner) if ex.partner is not None else (ex,):
                check_laminar(side.con.spans(), len(side.sent))
