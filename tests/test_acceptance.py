"""Acceptance suite: one numbered test per shipped guarantee.

Fast algebraic guarantees (gradients, chart search, loss identities,
encoder equivalences, schedule traces, bitwise reproducibility) run from
scratch in each test.  The desk-scale distillation experiment — corpus,
frozen dependency teachers, and five seeds of distilled / baseline /
feature-mode students — is built once in a module fixture and shared by
the three directional tests.
"""
import time

import numpy as np
import pytest

from checkcases import SUITES
from gradcheck import run_suite
from oracles import enum_best, one_parent, random_bintree, random_table
from synkd import encoders as E
from synkd.distill import (DistillConfig, TeacherSet, combine_syn,
                           output_distill_loss, reg_loss, total_loss)
from synkd.encoders import Codec, StudentModel, make_teacher, TEACHER_KINDS
from synkd.probe import probe_train_eval
from synkd.structures import SpanScores, cyk_augmented, cyk_max
from synkd.syntax_data import gen_synthetic
from synkd.tensor import Tensor
from synkd.train import (Schedule, TeacherSignals, distill_student, evaluate,
                         params_fingerprint, save_checkpoint, train_teacher)

F64 = np.float64


# ---------------------------------------------------------------------------
# 1. every encoder and every loss passes finite-difference gradient checks

def test_01_gradient_suite():
    """All autodiff paths agree with central finite differences in f64."""
    t0 = time.time()
    results = [run_suite(name, make_case, 25, seed=0) for name, make_case in SUITES.items()]
    elapsed = time.time() - t0
    names = {r["name"] for r in results}
    assert {"childsum_treelstm", "nary_treelstm", "gcn", "student_bilstm",
            "output_distill", "feat_distill", "syn_combine", "semantic_lm",
            "dep_inject", "con_inject", "reg", "total"} <= names
    worst = max(r["max_rel_err"] for r in results)
    for r in results:
        assert r["cases"] >= 25, r
        assert r["ok"] and r["max_rel_err"] < 1e-5, r
    assert elapsed < 120.0
    print(f"[1] PASS gradient suite: {len(results)} suites x 25 cases, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. chart search equals exhaustive enumeration over all bracketings

def test_02_chart_parser_oracle():
    """cyk_max / cyk_augmented match brute force on 50 random tables."""
    rng = np.random.default_rng(20)
    t0 = time.time()
    for k in range(50):
        n = (k % 8) + 1
        n_labels = (k % 3) + 1
        table = random_table(n, n_labels, rng)
        got_t, got_s = cyk_max(SpanScores(n, table))
        exp_t, exp_s = enum_best(table, n)
        assert abs(got_s - exp_s) < 1e-9
        assert got_t == exp_t
        ref = random_bintree(n, n_labels, rng)
        got_t, got_s = cyk_augmented(SpanScores(n, table), ref)
        exp_t, exp_s = enum_best(table, n, ref=ref)
        assert abs(got_s - exp_s) < 1e-9
        assert got_t == exp_t
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"[2] PASS chart oracle: 50 tables (n<=8, |L|<=3), plain and "
          f"cost-augmented, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. closed-form loss identities

def test_03_loss_identities():
    """Mixture endpoints and hand-computed loss values, exact to 1e-9."""
    rng = np.random.default_rng(3)
    logits = Tensor(rng.standard_normal((4, 3)))
    gold = np.eye(3)[[0, 2, 1, 0]]
    rows = [np.full((4, 3), 1.0 / 3), np.eye(3)[[1, 1, 2, 0]]]

    def ce(target):
        p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        log_p = np.log(p / p.sum(axis=1, keepdims=True))
        return -np.mean(np.sum(target * log_p, axis=1))

    at1 = output_distill_loss(gold, rows, logits, alpha=1.0)
    at0 = output_distill_loss(gold, rows, logits, alpha=0.0)
    assert abs(float(at1.data) - ce(gold)) < 1e-9
    assert abs(float(at0.data) - ce(np.mean(rows, axis=0))) < 1e-9

    l_dep, l_con = Tensor(np.array(1.25)), Tensor(np.array(0.75))
    assert combine_syn(l_dep, l_con, 1.0) is l_dep
    assert combine_syn(l_dep, l_con, 0.0) is l_con
    mid = combine_syn(l_dep, l_con, 0.4)
    assert abs(float(mid.data) - (0.4 * 1.25 + 0.6 * 0.75)) < 1e-9

    theta = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    assert abs(float(reg_loss([theta], 0.2).data) - 2.5) < 1e-9

    total = total_loss(Tensor(np.array(1.0)), syn=Tensor(np.array(2.0)),
                       sem=Tensor(np.array(3.0)), lam1=0.6, lam2=0.2)
    assert abs(float(total.data) - 2.8) < 1e-9
    print("[3] PASS loss identities: alpha/eta endpoints, reg 2.5, total 2.8")


# ---------------------------------------------------------------------------
# 4. encoder equivalences

def test_04_encoder_equivalences():
    """Child-sum is order-free; with one child it equals the N=1 cell."""
    rng = np.random.default_rng(4)
    p = E.Params(rng, F64)
    cs = E.ChildSumCell(p, "c", 3, 4)
    x = Tensor(rng.standard_normal((1, 3)))
    kids = [(Tensor(rng.standard_normal((1, 4))),
             Tensor(rng.standard_normal((1, 4)))) for _ in range(5)]
    out_h, out_c = one_parent(cs, x, kids)
    for perm in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 4, 0, 3, 2]):
        other_h, other_c = one_parent(cs, x, [kids[i] for i in perm])
        assert out_h.data.tobytes() == other_h.data.tobytes()
        assert out_c.data.tobytes() == other_c.data.tobytes()

    na = E.NaryCell(E.Params(rng, F64), "c", 3, 4, n_ary=1)
    for g in ("i", "o", "u", "f"):
        na.W[g].data[...] = cs.W[g].data
        na.b[g].data[...] = cs.b[g].data
    for g in ("i", "o", "u"):
        na.U[g][0].data[...] = cs.U[g].data
    na.Uf[0][0].data[...] = cs.U["f"].data
    state_cs = one_parent(cs, x, [])
    state_na = one_parent(na, x, [])
    for step in range(4):  # a 4-node chain, leaf upward
        np.testing.assert_allclose(state_cs[0].data, state_na[0].data, atol=1e-9)
        np.testing.assert_allclose(state_cs[1].data, state_na[1].data, atol=1e-9)
        x_t = Tensor(rng.standard_normal((1, 3)))
        state_cs = one_parent(cs, x_t, [state_cs])
        state_na = one_parent(na, x_t, [state_na])
    # the same chain as one tree, both directions, through the batched encoder
    chain, xs = E.dep_edges([2, 3, 4, 0]), Tensor(rng.standard_normal((4, 3)))
    plans = E.level_plans([4], [chain])
    np.testing.assert_allclose(E.tree_encode(plans, xs, cs, cs).data,
                               E.tree_encode(plans, xs, na, na).data, atol=1e-9)
    print("[4] PASS encoder equivalences: permutation-free child-sum, "
          "child-sum == N=1 on a chain")


# ---------------------------------------------------------------------------
# 5. turn-taking control flow

def tiny_world(n=32, seed=0, max_len=8):
    examples = gen_synthetic(n, max_len=max_len, seed=seed, task="cls",
                             grammar_size=4)
    codec = Codec(examples, "cls")
    encs = [codec.encode(ex) for ex in examples]
    rng = np.random.default_rng(seed + 1)
    dep, con = [], []
    for kind in TEACHER_KINDS:
        m = make_teacher(kind, codec, emb_dim=10, hidden=8, n_layers=1, rng=rng)
        (dep if m.structure == "dep" else con).append(m)
    return codec, encs, TeacherSet(dep=dep, con=con)


def simulated_trace(sched, kinds, lam1, lam2):
    rows = []
    for t in range(1, sched.total + 1):
        if t <= sched.g1:
            if lam2 > 0:
                rows.append((t, "sem"))
            for kind in kinds:
                rows.append((t, f"output/{kind}"))
                structure = "dep" if kind.endswith("-dep") else "con"
                if lam1 > 0 and (structure == "dep") == sched.dep_turn(t):
                    rows.append((t, f"{structure}/{kind}"))
        else:
            rows.append((t, "all"))
    return rows


def test_05_turn_taking_trace():
    """G1=4, G2=2 loss selection matches the hand simulation; teachers stay
    bitwise frozen across the run."""
    codec, encs, teachers = tiny_world()
    student = StudentModel(codec, emb_dim=10, hidden=8, n_layers=2,
                           rng=np.random.default_rng(5))
    before = [params_fingerprint(m.p) for m in teachers.all]
    sched = Schedule(total=6, g1=4, g2=2)
    cfg = DistillConfig(total_iters=6)
    state = distill_student(student, teachers, encs, None, cfg, sched,
                            batch_size=4, lr=1e-3, seed=0)
    kinds = [m.kind for m in teachers.all]
    expected = simulated_trace(sched, kinds, cfg.lam1, cfg.lam2)
    assert state.trace == expected
    assert [params_fingerprint(m.p) for m in teachers.all] == before
    print(f"[5] PASS turn-taking: {len(expected)}-step trace matches hand "
          f"simulation, teachers bitwise frozen")


# ---------------------------------------------------------------------------
# desk-scale experiment shared by tests 6-8

N_SEEDS = 5
T_DESK = 150


def desk_student(codec, seed):
    return StudentModel(codec, emb_dim=24, hidden=16, n_layers=2,
                        rng=np.random.default_rng(100 + seed))


@pytest.fixture(scope="module")
def desk():
    t0 = time.time()
    splits = [gen_synthetic(n, max_len=12, seed=s, task="cls")
              for n, s in ((1000, 0), (200, 1), (200, 2))]
    codec = Codec(splits[0], "cls")
    train, dev, test = ([codec.encode(e) for e in part] for part in splits)

    teachers = []
    for kind, kw, tkw in [
        ("tlstm-dep", dict(emb_dim=24, hidden=16),
         dict(iters=400, lr=1e-2, eval_every=50, patience=4)),
        ("gcn-dep", dict(emb_dim=24, n_layers=2),
         dict(iters=600, lr=1e-2, eval_every=50, patience=6)),
    ]:
        m = make_teacher(kind, codec, rng=np.random.default_rng(11), **kw)
        train_teacher(m, train, dev, batch_size=32, seed=0, **tkw)
        teachers.append(m)
    dep_set = TeacherSet(dep=teachers, con=[])

    # syntax injection rides the joint phase; the early phase is pure
    # output distillation (the dep turn is scheduled out of the early block)
    sched = Schedule(total=T_DESK, g1=130, g2=130, dep_first=False)
    cfg_b = DistillConfig(total_iters=T_DESK, lam1=0.1, lam2=0.0, zeta=0.02)
    cfg_base = DistillConfig(total_iters=T_DESK, lam1=0.0, lam2=0.0,
                             alpha_fixed=1.0)
    signals_b = TeacherSignals(dep_set, train, cfg_b, len(codec.dep_labels))

    def run(tset, cfg, signals, seed):
        stu = desk_student(codec, seed)
        distill_student(stu, tset, train, dev, cfg, sched, batch_size=32,
                        lr=1e-2, eval_every=10, patience=999, seed=seed,
                        signals=signals)
        return stu, evaluate(stu, test)["accuracy"]

    students_b, acc_b, students_base, acc_base = [], [], [], []
    for seed in range(N_SEEDS):
        stu, acc = run(dep_set, cfg_b, signals_b, seed)
        students_b.append(stu)
        acc_b.append(acc)
        stu, acc = run(None, cfg_base, None, seed)
        students_base.append(stu)
        acc_base.append(acc)
    core_seconds = time.time() - t0

    cfg_a = DistillConfig(total_iters=T_DESK, lam1=0.1, lam2=0.0, zeta=0.02,
                          mode="A")
    signals_a = TeacherSignals(dep_set, train, cfg_a, len(codec.dep_labels))
    acc_a = [run(dep_set, cfg_a, signals_a, seed)[1] for seed in range(N_SEEDS)]

    return dict(train=train, test=test, acc_b=acc_b, acc_base=acc_base,
                acc_a=acc_a, students_b=students_b,
                students_base=students_base, core_seconds=core_seconds)


def test_06_desk_scale_distillation_gain(desk):
    """Distilled (structure-injection mode) beats the no-distillation
    student by >= 2 accuracy points, mean over 5 seeds, within budget."""
    gap = np.mean(desk["acc_b"]) - np.mean(desk["acc_base"])
    assert gap >= 2.0, (desk["acc_b"], desk["acc_base"])
    assert desk["core_seconds"] < 900.0
    print(f"[6] PASS desk-scale gain: distilled "
          f"{np.mean(desk['acc_b']):.1f} vs baseline "
          f"{np.mean(desk['acc_base']):.1f} ({gap:+.1f} points, "
          f"{desk['core_seconds']:.0f}s)")


def test_07_dependency_probe_direction(desk):
    """Frozen-representation arc-labeling probes favour the distilled
    student on at least 4 of 5 seeds."""
    wins, pairs = 0, []
    for seed in range(N_SEEDS):
        p_b, _ = probe_train_eval(desk["students_b"][seed], "dependency-labeling",
                                  desk["train"], desk["test"], seed=seed)
        p_0, _ = probe_train_eval(desk["students_base"][seed],
                                  "dependency-labeling",
                                  desk["train"], desk["test"], seed=seed)
        wins += p_b >= p_0
        pairs.append((p_b, p_0))
    assert wins >= 4, pairs
    print(f"[7] PASS probe direction: distilled >= baseline on "
          f"{wins}/{N_SEEDS} seeds "
          f"({', '.join('%.1f vs %.1f' % pr for pr in pairs)})")


def test_08_structure_mode_noninferiority(desk):
    """Structure injection (mode B) is not worse than feature regression
    (mode A) by more than half a point."""
    mean_b, mean_a = np.mean(desk["acc_b"]), np.mean(desk["acc_a"])
    assert mean_b >= mean_a - 0.5, (desk["acc_b"], desk["acc_a"])
    print(f"[8] PASS mode comparison: B {mean_b:.1f} vs A {mean_a:.1f}")


# ---------------------------------------------------------------------------
# 9. bitwise reproducibility

def test_09_bitwise_reproducibility(tmp_path):
    """Same seed and config give identical checkpoints and metrics."""

    def pipeline(tag):
        codec, encs, teachers = tiny_world(n=48, seed=30)
        for m in teachers.all:
            train_teacher(m, encs, encs[:12], iters=6, batch_size=4, lr=1e-3,
                          eval_every=3, patience=99, seed=1)
        student = StudentModel(codec, emb_dim=10, hidden=8, n_layers=2,
                               rng=np.random.default_rng(9))
        distill_student(student, teachers, encs, encs[:12],
                        DistillConfig(total_iters=6),
                        Schedule(total=6, g1=4, g2=2),
                        batch_size=4, lr=1e-3, eval_every=3, patience=99,
                        seed=2)
        path = tmp_path / f"{tag}.syd1"
        save_checkpoint(path, student.p.state_dict())
        return (params_fingerprint(student.p), path.read_bytes(),
                evaluate(student, encs[:12]))

    fp1, bytes1, metrics1 = pipeline("first")
    fp2, bytes2, metrics2 = pipeline("second")
    assert fp1 == fp2
    assert bytes1 == bytes2
    assert metrics1 == metrics2
    print("[9] PASS reproducibility: identical checkpoint bytes and metrics")
