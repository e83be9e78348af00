"""Tree-annotated dataset model, file ingestion, and a synthetic corpus.

Sentences carry two parallel syntactic annotations: a dependency tree
(heads + relation labels) and a constituency tree. The synthetic generator
produces an agreement-classification corpus from a small PCFG where the
class label is a deterministic function of the gold tree, so structure-aware
models have measurable headroom over surface heuristics. It emits each
sentence as its leaves and post-order spans; no tree node is built until a
reader asks for a tree's root.
"""
from __future__ import annotations

import json
import os
import re
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

PAD, UNK, MASK = 0, 1, 2
RESERVED = ["<pad>", "<unk>", "<mask>"]

NULL_LABEL = "<null>"  # label of nodes introduced by binarization


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# vocabularies

class Vocab:
    """Token -> id map with reserved <pad>/<unk>/<mask> at 0/1/2."""

    def __init__(self, itos):
        if list(itos[:3]) != RESERVED:
            raise DataError(f"vocab must start with reserved tokens {RESERVED}")
        self.itos = list(itos)
        self.stoi = {t: i for i, t in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise DataError("duplicate token in vocab")

    @classmethod
    def build(cls, token_lists):
        """Frequency-sorted vocab, ties broken lexicographically."""
        counts = {}
        for toks in token_lists:
            for t in toks:
                counts[t] = counts.get(t, 0) + 1
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(RESERVED + ordered)

    def __len__(self):
        return len(self.itos)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.stoi.get(t, UNK) for t in tokens], dtype=np.int64)

    def to_list(self):
        return list(self.itos)


class LabelVocab:
    """Closed label set -> id map, lexicographically ordered for determinism."""

    def __init__(self, itos):
        self.itos = list(itos)
        self.stoi = {t: i for i, t in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise DataError("duplicate label in label vocab")

    @classmethod
    def build(cls, labels, reserve_null: bool = False):
        uniq = sorted(set(labels) - {NULL_LABEL})
        head = [NULL_LABEL] if reserve_null else []
        return cls(head + uniq)

    def __len__(self):
        return len(self.itos)

    def encode(self, labels) -> np.ndarray:
        try:
            return np.array([self.stoi[l] for l in labels], dtype=np.int64)
        except KeyError as e:
            raise DataError(f"unknown label {e.args[0]!r}") from None

    def to_list(self):
        return list(self.itos)


# ---------------------------------------------------------------------------
# domain types

@dataclass
class Sentence:
    tokens: list

    def __len__(self):
        return len(self.tokens)


@dataclass
class DepTree:
    """heads[i] in [0..n], 1-based head position, 0 = virtual root."""
    heads: list
    labels: list

    def __post_init__(self):
        if len(self.heads) != len(self.labels):
            raise DataError(
                f"dep labels length {len(self.labels)} != heads length {len(self.heads)}")
        validate_heads(self.heads)

    def __len__(self):
        return len(self.heads)


def validate_heads(heads):
    n = len(heads)
    if n < 1:
        raise DataError("empty dependency tree")
    for i, h in enumerate(heads):
        if not 0 <= h <= n:
            raise DataError(f"head out of range at token {i + 1}")
    # walk up from each token in order until a token known to reach the root;
    # a walk of more than n steps is in a cycle
    rooted = [True] + [False] * n
    for i in range(1, n + 1):
        path, cur = [], i
        while not rooted[cur]:
            path.append(cur)
            if len(path) > n:
                raise DataError(f"cycle at token {i}")
            cur = heads[cur - 1]
        for t in path:
            rooted[t] = True
    roots = [i + 1 for i, h in enumerate(heads) if h == 0]
    if len(roots) > 1:
        raise DataError(f"multiple roots (tokens {', '.join(map(str, roots))})")


class ConstNode:
    """Constituency node: preterminal (word set) or internal (children set)."""

    __slots__ = ("label", "children", "word")

    def __init__(self, label, children=None, word=None):
        self.label = label
        self.children = children or []
        self.word = word
        if (self.word is None) == (not self.children):
            raise DataError(f"node {label!r} must have children or a word")

    @property
    def is_leaf(self):
        return self.word is not None

    def __eq__(self, other):
        return (isinstance(other, ConstNode) and self.label == other.label
                and self.word == other.word and self.children == other.children)

    def __repr__(self):
        return render_bracketed(ConstTree(self))


class ConstTree:
    """A constituency tree as its leaves and its post-order spans, which every
    walk over it reads. A tree built from nodes collects both once; a parsed
    tree builds its nodes from them on the first read of `root`. Nodes are not
    changed after that."""

    def __init__(self, root: ConstNode):
        self.root = root
        self._leaves, self._spans = [], []
        _collect(root, self._leaves, self._spans)
        self.n = len(self._leaves)

    @classmethod
    def _parsed(cls, leaves, spans):
        """The tree of the leaves and post-order spans a parser collected."""
        tree = cls.__new__(cls)
        tree._leaves, tree._spans, tree.n = leaves, spans, len(leaves)
        return tree

    @cached_property
    def root(self) -> ConstNode:
        # a node's children are the unattached earlier subtrees inside it
        built = []  # (first leaf, node) of subtrees whose parent is not built yet
        for i, _, label in self._spans:
            k = len(built)
            while k and built[k - 1][0] >= i:
                k -= 1
            kids = [c for _, c in built[k:]]
            del built[k:]
            built.append((i, ConstNode(label, kids, None if kids else self._leaves[i])))
        return built[0][1]

    def leaves(self):
        return list(self._leaves)

    def spans(self):
        """(i, j, label) for every node, 0-based half-open, preterminals
        included, children before their parent."""
        return list(self._spans)

    def __eq__(self, other):
        # post-order spans and leaves fix the node tree
        return (isinstance(other, ConstTree) and self._leaves == other._leaves
                and self._spans == other._spans)


def _collect(node, leaves, spans):
    start = len(leaves)
    if node.is_leaf:
        leaves.append(node.word)
    else:
        for c in node.children:
            _collect(c, leaves, spans)
    spans.append((start, len(leaves), node.label))


@dataclass
class Example:
    """One annotated sentence plus exactly one task payload.

    Payload variants: class label alone; partner sentence + class label;
    per-token tags + predicate index.
    """
    sent: Sentence
    dep: DepTree
    con: ConstTree
    label: int | None = None
    partner: "Example | None" = None
    tags: list | None = None
    predicate: int | None = None

    def payload_kind(self):
        if self.partner is not None:
            if self.label is None or self.tags is not None:
                raise DataError("pair payload requires a label and no tags")
            return "pair"
        if self.tags is not None:
            if self.predicate is None or self.label is not None:
                raise DataError("tag payload requires a predicate and no label")
            return "tag"
        if self.label is not None:
            return "cls"
        raise DataError("example has no payload")

    def validate(self):
        n = len(self.sent)
        if n < 1:
            raise DataError("empty sentence")
        if len(self.dep) != n:
            raise DataError(f"dep tree length {len(self.dep)} != sentence length {n}")
        if self.con.leaves() != self.sent.tokens:
            raise DataError("constituency leaves do not match tokens")
        kind = self.payload_kind()
        if kind == "tag":
            if len(self.tags) != n:
                raise DataError(f"tag sequence length {len(self.tags)} != {n}")
            if not 0 <= self.predicate < n:
                raise DataError(f"predicate index {self.predicate} out of range")
        if kind == "pair":
            if len(self.partner.dep) != len(self.partner.sent):
                raise DataError("partner dep tree length mismatch")
            if self.partner.con.leaves() != self.partner.sent.tokens:
                raise DataError("partner constituency leaves do not match tokens")


# ---------------------------------------------------------------------------
# PTB-style bracketed constituency text

# a token is a whole preterminal "(L w)", an opening "(L", a bare paren or a word
_TOKEN = re.compile(r"\(\s*([^\s()]+)\s+([^\s()]+)\s*\)|\(\s*([^\s()]+)|([()]|[^\s()]+)")


def _token_at(text, k):
    """The k-th token of text, found again only to name an error's offset."""
    return list(_TOKEN.finditer(text))[k]


def parse_bracketed(text):
    """Every tree of PTB-style bracketed text, in one pass over its tokens;
    each node adds its leaf and span to its tree as it closes, unbuilt."""
    trees, stack = [], []  # stack: [label, first leaf, #children, #words] of open nodes
    for k, (label, word, opening, tok) in enumerate(_TOKEN.findall(text)):
        if word or opening or tok == "(":
            if not stack:
                leaves, spans = [], []
            if not word:  # "(L", or an unlabeled "(" as in "( (S ...) )"
                stack.append([opening or None, len(leaves), 0, 0])
                continue
            spans.append((len(leaves), len(leaves) + 1, label))
            leaves.append(word)
        elif not stack:
            raise DataError(f"expected '(' at offset {_token_at(text, k).start()}")
        elif tok != ")":
            stack[-1][3] += 1
            continue
        else:
            label, start, children, words = stack.pop()
            if label is None and not children and not words:
                raise DataError(f"empty node at offset {_token_at(text, k).start()}")
            # a one-word node "(L w)" is a single token, so words here are faults
            if words and children:
                raise DataError(f"node {label!r} mixes words and subtrees at offset "
                                f"{_token_at(text, k).end()}")
            if words > 1:
                raise DataError(f"node {label!r} has multiple words at offset "
                                f"{_token_at(text, k).end()}")
            if not words and not children:
                raise DataError(f"empty node {label!r} at offset {_token_at(text, k).end()}")
            if label is None and children != 1:
                raise DataError("unlabeled node must wrap one subtree at offset "
                                f"{_token_at(text, k).end()}")
            if label is not None:  # an unlabeled node only wraps its one subtree
                spans.append((start, len(leaves), label))
        if stack:
            stack[-1][2] += 1
        else:
            trees.append(ConstTree._parsed(leaves, spans))
    if stack:
        raise DataError(f"unexpected end of input at offset {len(text)}")
    return trees


# each byte's kind, as a bytes.translate table: 0 the ASCII whitespace that
# str.split() splits on, 1 "(", 2 ")", 3 the "\x01" that ends a text, 4 other
_KIND = bytes({40: 1, 41: 2, 1: 3}.get(c, 0 if c < 128 and chr(c).isspace() else 4)
              for c in range(256))
# _NEXT[a, b]: whether a token of kind b may follow one of kind a, a label (5)
# being a name right after "(": "(" opens with a label, a label precedes a
# subtree or the word its "(L w)" closes on, and a text ends at ")"
_NEXT = np.zeros((6, 6), bool)
_NEXT[(1, 5, 5, 4, 2, 2, 2, 3), (5, 1, 4, 2, 1, 2, 3, 1)] = True


def _check_sides(sides):
    """The con tree of each (heads, tree text) side, all checked at once: every
    head list must be a tree, and every text ASCII and one tree of labeled
    "(L w)" and "(L ...)" nodes. A DataError for anything else."""
    heads, texts = zip(*sides)
    # token t of list s is node base_s + t, and node 0 is every list's root:
    # a token's 2^k-th ancestor is 0 unless the token is in a cycle
    n = np.fromiter(map(len, heads), np.int64, len(heads))
    h = np.fromiter(chain.from_iterable(heads), np.int64, n.sum())
    joined = " \x01 ".join(texts) + " \x01"
    if (not n.all() or ((h < 0) | (h > np.repeat(n, n))).any() or (h == 0).sum() != len(n)
            or not joined.isascii() or joined.count("\x01") > len(texts)):
        raise DataError("a side is not plain")
    up = np.concatenate(([0], np.where(h > 0, h + np.repeat(np.cumsum(n) - n, n), 0)))
    for _ in range(int(n.max()).bit_length()):
        up = up[up]
    # each token's kind: a token starts at each byte that is neither
    # whitespace nor the continuation of a name, so a paren is one token
    kind = np.frombuffer(f" {joined}".encode().translate(_KIND), np.int8)
    name = kind == 4
    kind = np.compress((kind[1:] > 0) & ~(name[1:] & name[:-1]), kind[1:])
    label = np.flatnonzero(kind == 1) + 1
    kind[label] += kind[label] == 4
    o, c, word, end = kind == 1, kind == 2, kind == 4, kind == 3
    depth = np.cumsum(o.view(np.int8) - c.view(np.int8), dtype=np.int32)
    # each text is one tree: depth is 0 only at its last ")" and its end;
    # int16 levels let the stable argsort below run as a radix sort
    if (up.any() or not _NEXT.take(6 * kind[:-1] + kind[1:]).all()
            or not np.array_equal(depth == 0, end | np.roll(end, -1)) or depth.max() >= 2 ** 15):
        raise DataError("a side is not plain")
    # each level's "(" and ")" alternate; a node's span closes at its ")"
    paren, ends, closes = np.flatnonzero(o | c), np.flatnonzero(end), np.flatnonzero(c)
    pairs = paren[np.argsort((depth[paren] + c[paren]).astype(np.int16), kind="stable")]
    opening = np.empty(len(kind), np.int64)
    opening[pairs[1::2]] = pairs[::2]
    opening = opening[closes]
    words = np.cumsum(word, dtype=np.int32)  # up to a token
    first = np.concatenate(([0], words[ends]))  # before each text, and in all
    base = first[np.searchsorted(ends, closes)]  # before the text of a ")"
    names = joined.replace("(", " ").replace(")", " ").split()  # labels, words, ends
    names = np.fromiter(names, object, len(names))
    rank = np.cumsum(kind >= 3, dtype=np.int32) - 1  # of a token's name in names
    spans = list(zip((words[opening] - base).tolist(), (words[closes] - base).tolist(),
                     names[rank[opening + 1]].tolist()))
    a, p = first.tolist(), [0, *np.searchsorted(closes, ends).tolist()]
    words = names[rank[word]].tolist()
    return [ConstTree._parsed(words[a[k]:a[k + 1]], spans[p[k]:p[k + 1]])
            for k in range(len(texts))]


def render_bracketed(tree: ConstTree) -> str:
    # a token opens the spans that start at it, outermost (latest in
    # post-order) first, and closes those that end right after it
    opens, closes = [[] for _ in tree._leaves], [0] * tree.n
    for i, j, label in reversed(tree._spans):
        opens[i].append(f"({label} ")
        closes[j - 1] += 1
    return " ".join(f"{''.join(o)}{w}{')' * c}" for o, w, c in zip(opens, tree._leaves, closes))


# ---------------------------------------------------------------------------
# head percolation: constituency -> dependency

HEAD_CHILD = {"S": "VP", "NP": "N", "PP": "P", "RC": "VPE", "VP": "V", "VPE": "VN"}

ARC_LABEL = {
    ("S", "NP"): "nsubj",
    ("S", "PP"): "prep",
    ("NP", "Det"): "det",
    ("NP", "PP"): "prep",
    ("NP", "RC"): "relcl",
    ("PP", "NP"): "pobj",
    ("RC", "RP"): "mark",
    ("VP", "NP"): "dobj",
    ("VP", "Adv"): "advmod",
    ("VPE", "NP"): "dobj",
}


def percolate_deps(tree: ConstTree) -> DepTree:
    """Dependency tree from head-child rules over the synthetic grammar."""
    heads = [None] * tree.n
    labels = [None] * tree.n
    done = []  # (first leaf, head token, label) of subtrees whose parent is not reached yet
    for i, _, label in tree._spans:
        k = len(done)
        while k and done[k - 1][0] >= i:
            k -= 1
        if k == len(done):  # a preterminal heads itself
            done.append((i, i, label))
            continue
        rule = HEAD_CHILD.get(label)
        if rule is None:
            raise DataError(f"no head rule for constituent {label!r}")
        kids = done[k:]
        del done[k:]
        for _, head, c in kids:  # the first child labeled `rule` gives the head
            if c == rule:
                break
        else:
            raise DataError(f"head child {rule!r} missing under {label!r}")
        for _, h, c in kids:
            if h != head:
                lab = ARC_LABEL.get((label, c))
                if lab is None:
                    raise DataError(f"no arc label for {label!r} -> {c!r}")
                heads[h] = head + 1
                labels[h] = lab
        done.append((i, head, label))
    root = done[0][1]
    heads[root] = 0
    labels[root] = "root"
    return DepTree(heads, labels)


# ---------------------------------------------------------------------------
# synthetic agreement corpus

NOUNS = [("cat", "cats"), ("dog", "dogs"), ("bird", "birds"), ("horse", "horses"),
         ("fox", "foxes"), ("cow", "cows"), ("pig", "pigs"), ("owl", "owls")]
VERBS = [("runs", "run"), ("jumps", "jump"), ("barks", "bark"), ("sings", "sing"),
         ("sleeps", "sleep"), ("sees", "see"), ("chases", "chase"), ("waits", "wait")]
EMB_VERBS = ["chased", "saw", "liked", "followed"]
PREPS = ["near", "behind", "above", "beside"]
ADVS = ["quickly", "often", "happily", "quietly"]
DET = "the"
RELPRON = "that"

SHAPES = ["simple", "pp", "rc", "fronted"]
SHAPE_WEIGHTS = [0.15, 0.30, 0.25, 0.30]


# the draw of Generator.choice(len(SHAPES), p=SHAPE_WEIGHTS): one uniform, one index
_SHAPE_CDF = np.cumsum(SHAPE_WEIGHTS)
_SHAPE_CDF /= _SHAPE_CDF[-1]

_NP = "(NP (Det w) (N w))"
_PP = f"(PP (P w) {_NP})"
# the fronted phrase and the subject's modifier of each shape, and the verb
# phrase of each length
_PARTS = {"simple": ("", ""), "pp": ("", _PP), "rc": ("", f"(RC (RP w) (VPE (VN w) {_NP}))"),
          "fronted": (_PP, "")}
_VP = {3: f"(VP (V w) {_NP})", 2: "(VP (V w) (Adv w))"}


def _layout(text):
    (tree,) = parse_bracketed(text)
    return tuple(tree._spans), percolate_deps(tree)


# post-order spans and dependency tree of every sentence of a shape and
# verb-phrase length; its words fill the leaves
_LAYOUTS = {(shape, k): _layout(f"(S {front} (NP (Det w) (N w) {mod}) {vp})")
            for shape, (front, mod) in _PARTS.items() for k, vp in _VP.items()}


class _Grammar:
    def __init__(self, size):
        if size < 1:
            raise DataError("degenerate grammar: no terminals")
        self.nouns = NOUNS[:max(2, min(size, len(NOUNS)))]
        self.verbs = VERBS[:max(2, min(size, len(VERBS)))]
        self.emb_verbs = EMB_VERBS[:max(1, min(size, len(EMB_VERBS)))]
        self.preps = PREPS[:max(1, min(size, len(PREPS)))]
        self.advs = ADVS[:max(1, min(size, len(ADVS)))]

    def simple_np(self, rng):
        num = int(rng.integers(2))
        return [DET, self.nouns[rng.integers(len(self.nouns))][num]]

    def sentence(self, rng, agree, max_len):
        """The words of one sentence whose main verb agrees with its subject
        iff `agree`, drawn again until it fits max_len, with its layout key,
        subject number, subject start and verb position."""
        while True:
            shape = SHAPES[_SHAPE_CDF.searchsorted(rng.random(), side="right")]
            subj_num = int(rng.integers(2))
            verb = self.verbs[rng.integers(len(self.verbs))][subj_num if agree else 1 - subj_num]
            subj = [DET, self.nouns[rng.integers(len(self.nouns))][subj_num]]
            # the verb phrase is drawn before the subject's modifier that
            # precedes it: this order fixes the corpus of a seed
            vp = [verb] + (self.simple_np(rng) if rng.random() < 0.5
                           else [self.advs[rng.integers(len(self.advs))]])
            mod = []
            if shape != "simple":  # a PP, fronted or in the subject, or an RC
                mod = [RELPRON, self.emb_verbs[rng.integers(len(self.emb_verbs))]] \
                    if shape == "rc" else [self.preps[rng.integers(len(self.preps))]]
                mod += self.simple_np(rng)
            front, subj = (mod, subj) if shape == "fronted" else ([], subj + mod)
            vi = len(front) + len(subj)
            if vi + len(vp) <= max_len:
                return front + subj + vp, (shape, len(vp)), subj_num, len(front), vi


def _example(tokens, key):
    spans, dep = _LAYOUTS[key]
    tree = DepTree.__new__(DepTree)  # a copy of the layout's tree, checked when built
    tree.heads, tree.labels = list(dep.heads), list(dep.labels)
    return Example(Sentence(tokens), tree, ConstTree._parsed(list(tokens), list(spans)))


def _make_example(grammar, rng, task, label, max_len):
    tokens, key, num, i, vi = grammar.sentence(rng, bool(label) if task != "pair" else True,
                                               max_len)
    ex = _example(tokens, key)
    if task == "cls":
        ex.label = label
    elif task == "tag":
        # the subject runs from token i up to the verb at vi
        ex.tags = ["O"] * i + ["B-SUBJ"] + ["I-SUBJ"] * (vi - i - 1) + ["O"] * (len(tokens) - vi)
        ex.predicate = vi
    elif task == "pair":
        # label = whether the two subjects share grammatical number
        while True:
            tokens2, key2, num2, _, _ = grammar.sentence(rng, True, max_len)
            if (num2 == num) == bool(label):
                break
        ex.label = label
        ex.partner = _example(tokens2, key2)
    else:
        raise DataError(f"unknown task {task!r}")
    return ex


def gen_synthetic(n_examples, max_len=12, seed=0, task="cls", grammar_size=5):
    """Deterministic synthetic corpus; class balance kept within [0.4, 0.6].
    Each sentence's words fill the leaves of its shape's post-order spans."""
    if max_len > 20:
        raise DataError("max_len must be <= 20")
    if max_len < 4:
        raise DataError("max_len too small for any sentence shape")
    grammar = _Grammar(grammar_size)
    achievable = [k for k in range(n_examples + 1)
                  if 0.4 * n_examples <= k <= 0.6 * n_examples]
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, attempt])
        if task == "tag":
            labels = [1] * n_examples  # tags carry the supervision; label unused
        else:
            labels = [int(rng.integers(2)) for _ in range(n_examples)]
        examples = [_make_example(grammar, rng, task, lab, max_len) for lab in labels]
        if task == "tag" or not achievable or sum(labels) in achievable:
            for ex in examples:
                ex.validate()
            return examples
        attempt += 1


# ---------------------------------------------------------------------------
# JSONL persistence

def example_to_dict(ex: Example) -> dict:
    d = {
        "tokens": ex.sent.tokens,
        "dep_heads": list(ex.dep.heads),
        "dep_labels": list(ex.dep.labels),
        "con_tree": render_bracketed(ex.con),
    }
    kind = ex.payload_kind()
    if kind != "tag":
        d["label"] = ex.label
    if kind == "pair":
        p = ex.partner
        d["pair_tokens"] = p.sent.tokens
        d["pair_dep_heads"] = list(p.dep.heads)
        d["pair_dep_labels"] = list(p.dep.labels)
        d["pair_con_tree"] = render_bracketed(p.con)
    if kind == "tag":
        d["tags"] = list(ex.tags)
        d["predicate"] = ex.predicate
    return d


def _field(d, key, where, item=None):
    """d[key] if it is a string or, given an item type, a list of such items,
    read in one pass; a bool is not an int here."""
    if key not in d:
        raise DataError(f"{where}: missing field {key!r}")
    v = d[key]
    if not (type(v) is str if item is None
            else type(v) is list and set(map(type, v)) <= {item}):
        raise DataError(f"{where}: {key} must be a " + (
            "string" if item is None else f"list of {'strings' if item is str else 'integers'}"))
    return v


def _sentence_from_fields(d, prefix, where, batch=None):
    """One side's sentence, dep tree and con tree. Given a batch list, the
    heads and tree text go to it, to be checked with the file's others, and
    the con tree is left None."""
    tokens = _field(d, prefix + "tokens", where, str)
    heads = _field(d, prefix + "dep_heads", where, int)
    labels = _field(d, prefix + "dep_labels", where, str)
    text = _field(d, prefix + "con_tree", where)
    if len(heads) != len(tokens):
        raise DataError(f"{where}: len(dep_heads) != len(tokens)")
    if batch is not None and len(labels) == len(heads):  # else DepTree names the fault
        batch.append((heads, text))
        dep = DepTree.__new__(DepTree)
        dep.heads, dep.labels = heads, labels
        return Sentence(tokens), dep, None
    try:
        dep = DepTree(list(heads), list(labels))
        trees = parse_bracketed(text)
    except DataError as e:
        raise DataError(f"{where}: {e}") from None
    if len(trees) != 1:
        raise DataError(f"{where}: con_tree must hold exactly one tree")
    return Sentence(list(tokens)), dep, trees[0]


def _index(d, key, where):
    """A non-negative integer field, not a bool, float or string."""
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise DataError(f"{where}: {key} must be a non-negative integer, got {v!r}")
    return v


# the fields of each task payload; a record holds those of exactly one
_PAYLOADS = {"tag": {"tags", "predicate"}, "cls": {"label"},
             "pair": {"label", "pair_tokens", "pair_dep_heads", "pair_dep_labels",
                      "pair_con_tree"}}
_PAYLOAD_FIELDS = set().union(*_PAYLOADS.values())


def _record_example(d, where, batch=None):
    """Record d's example, before Example.validate; batch as for
    _sentence_from_fields."""
    if type(d) is not dict:
        raise DataError(f"{where}: record must be a JSON object")
    ex = Example(*_sentence_from_fields(d, "", where, batch))
    given = _PAYLOAD_FIELDS & d.keys()
    kind = "tag" if given & _PAYLOADS["tag"] else "pair" if given - {"label"} else "cls"
    if given != _PAYLOADS[kind]:
        missing, stray = _PAYLOADS[kind] - given, given - _PAYLOADS[kind]
        raise DataError(f"{where}: {kind} payload " + (
            f"missing {min(missing)!r}" if missing else f"with stray field {min(stray)!r}"))
    if kind == "tag":
        ex.tags = list(_field(d, "tags", where, str))
        ex.predicate = _index(d, "predicate", where)
    else:
        if kind == "pair":
            ex.partner = Example(*_sentence_from_fields(d, "pair_", where, batch))
        ex.label = _index(d, "label", where)
    return ex


def example_from_dict(d: dict, where: str = "record") -> Example:
    ex = _record_example(d, where)
    try:
        ex.validate()
    except DataError as e:
        raise DataError(f"{where}: {e}") from None
    return ex


def fresh(path):
    """path, with any file there unlinked: truncating a non-empty file in
    place, or renaming over it, can stall a write for tens of ms on ext4."""
    with suppress(FileNotFoundError):
        os.unlink(path)
    return path


def save_jsonl(examples, path):
    with open(fresh(path), "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_dict(ex), ensure_ascii=False) + "\n")


def load_jsonl(path):
    """The examples of a JSONL file, each record's fields checked as
    example_from_dict checks them and all its head lists and tree texts at
    once. A file that this cannot prove well-formed is read again record by
    record, which raises the first fault with its line."""
    batch = []
    # a DataError, bad JSON or UTF-8 (ValueErrors), a head past int64 or JSON
    # nested too deep all send the file to the record-by-record reading
    with suppress(ValueError, OverflowError, RecursionError):
        with open(path, encoding="utf-8") as fh:
            examples = [_record_example(json.loads(s), f"line {ln}", batch)
                        for ln, s in enumerate(map(str.strip, fh.read().split("\n")), 1) if s]
        trees = iter(_check_sides(batch))
        for ex in examples:
            ex.con = next(trees)
            if ex.partner is not None:
                ex.partner.con = next(trees)
            ex.validate()
        return examples
    out = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"line {ln}: invalid JSON ({e.msg})") from None
            out.append(example_from_dict(d, where=f"line {ln}"))
    return out
