import functools
import json

import numpy as np
import pytest
from oracles import reference_distill_student, reference_train_teacher

from synkd import tensor as T
from synkd import train as TR
from synkd.distill import (DistillConfig, DistillError, TeacherSet, sample_mask_positions,
                           soft_arc_targets, soft_con_targets)
from synkd.encoders import (Codec, EncodedSide, GcnModel, StudentEncoder, StudentModel,
                            TEACHER_KINDS, make_teacher)
from synkd.syntax_data import DataError, Example, gen_synthetic
from synkd.tensor import Adam
from synkd.train import (
    BatchSampler,
    RunLog,
    RunState,
    Schedule,
    TeacherSignals,
    classification_metrics,
    dev_metric_key,
    distill_student,
    evaluate,
    hard_targets,
    load_checkpoint,
    load_run_state,
    params_fingerprint,
    predict,
    prepare_student,
    read_log,
    run_loop,
    save_checkpoint,
    save_run_state,
    sem_loss_batch,
    tagging_metrics,
    train_teacher,
)


# ------------------------------------------------------------------ fixtures

def small_data(n=48, seed=0, task="cls", max_len=8):
    examples = gen_synthetic(n, max_len=max_len, seed=seed, task=task, grammar_size=4)
    codec = Codec(examples, task)
    return codec, [codec.encode(ex) for ex in examples]


def small_student(codec, seed=1, layers=2):
    return StudentModel(codec, emb_dim=10, hidden=8, n_layers=layers,
                        rng=np.random.default_rng(seed))


def small_teachers(codec, seed=2):
    rng = np.random.default_rng(seed)
    dep, con = [], []
    for kind in TEACHER_KINDS:
        m = make_teacher(kind, codec, emb_dim=10, hidden=8, n_layers=1, rng=rng)
        (dep if m.structure == "dep" else con).append(m)
    return TeacherSet(dep=dep, con=con)


# ------------------------------------------------------- parameter layout

# fingerprints of freshly built teachers in the per-gate parameter layout
# that SYD1 v1 checkpoints store (names, shapes, init order); the fused gate
# blocks of the level kernels are built at run time and must not change it
TEACHER_FINGERPRINTS = {
    "tlstm-dep": ("27ad0e10f1cc94b8a2db1be1bc64e38fff37a4baf0d21d83ebb055626016042c",
                  "bab712a060800400a3299093cbeacf1e801aa15deca8fb54673a79d335538e79"),
    "gcn-dep": ("4d4e9cb3aaa573aa8e9ffc6d982776219fbe8fd69bf5a89320bc4563d26d414b",
                "3815e4421545f76700e990aa99b3f72b4a53153ecb90ce0e315b6593396afd0a"),
    "tlstm-con": ("8acd04a1cc7317599726a70cc7e502e7bda7ddaafab4b7aa0e6ab99f6a606cf6",
                  "d532e66f66fba32feb2a59380039f0bf8724f62eb45f35f63937af5f09597465"),
    "gcn-con": ("e308d442ed1271fe51eebb724d4eb487a65e28882ff0d285d71865b6c7b810f7",
                "d3d490cf697fad61dedb859f7d158efd924a8490a7a462905e7dae3fc9b9ef0e"),
}


def test_teacher_parameter_layout_pinned():
    codec = Codec(gen_synthetic(20, seed=0), "cls")
    for kind, (plain, with_head) in TEACHER_FINGERPRINTS.items():
        m = make_teacher(kind, codec, emb_dim=8, hidden=6, rng=np.random.default_rng(7))
        assert params_fingerprint(m.p) == plain, kind
        m.add_structure_head(m.structure)
        assert params_fingerprint(m.p) == with_head, kind


# fingerprints of a freshly built student per task codec, after two mode-A
# projections, and of a teacher with its structure head per task beyond cls
# (TEACHER_FINGERPRINTS pins every teacher on cls): the task head's and the
# projections' names, shapes and init order
TASK_FINGERPRINTS = {
    "cls": ("7b06a0e91c0686d57a148f4dd355cdb14cc9c2b62060849538fd48ec5a5cd116", None, None),
    "pair": ("788bdc6b9ae9aafba2a16f9e3b968e01b5f0d068de7b20c6bd609485a402ff5a",
             "tlstm-dep", "4ff2bdfca0e8cb9f0c76a92978e622dbafd9a064233b82019bbd8adafd32cfb9"),
    "tag": ("1068f39f1c239a910530165da61ce00e602682648cc0c329e37cf65c892649e5",
            "tlstm-con", "3c81ee45e7eb01340e0726b8fa68580e0413e5e3f55fba6e9f8f71055bfd92aa"),
}


def test_task_head_and_projection_layout_pinned():
    for task, (student_print, kind, teacher_print) in TASK_FINGERPRINTS.items():
        codec = Codec(gen_synthetic(20, seed=0, task=task), task)
        s = StudentModel(codec, emb_dim=8, hidden=6, n_layers=2, rng=np.random.default_rng(7))
        s.add_projection("tlstm-dep", 12)
        s.add_projection("gcn-con", 8)
        assert params_fingerprint(s.p) == student_print, task
        if kind is not None:
            t = make_teacher(kind, codec, emb_dim=8, hidden=6, rng=np.random.default_rng(7))
            t.add_structure_head(t.structure)
            assert params_fingerprint(t.p) == teacher_print, task


# ------------------------------------------------------------------ schedule

def test_schedule_flag_trace():
    s = Schedule(total=6, g1=4, g2=2)
    assert [s.dep_turn(t) for t in range(1, 5)] == [True, True, False, False]
    s1 = Schedule(total=8, g1=6, g2=1)
    assert [s1.dep_turn(t) for t in range(1, 7)] == [True, False, True, False, True, False]
    s3 = Schedule(total=10, g1=9, g2=3)
    assert [s3.dep_turn(t) for t in range(1, 10)] == [True] * 3 + [False] * 3 + [True] * 3


def test_schedule_validation():
    for bad in (dict(total=5, g1=6, g2=2), dict(total=5, g1=3, g2=4),
                dict(total=5, g1=3, g2=0)):
        with pytest.raises(ValueError):
            Schedule(**bad)
    with pytest.raises(ValueError):
        Schedule().dep_turn(0)


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    state = {
        "scalar": np.float32(3.5),
        "vec": rng.normal(size=7).astype(np.float32),
        "mat/with/slashes": rng.normal(size=(3, 4)).astype(np.float32),
        "cube-é": rng.normal(size=(2, 3, 2)).astype(np.float32),
    }
    path = tmp_path / "m.syd1"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert set(back) == set(state)
    for k in state:
        got = back[k]
        want = np.asarray(state[k], dtype=np.float32)
        assert got.shape == want.shape and not got.flags.writeable  # a view of the file
        assert np.array_equal(got, want)  # f32 payload is exact

    raw = path.read_bytes()
    assert raw[:4] == b"SYD1"

    bad = tmp_path / "bad.syd1"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="not a SYD1"):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.syd1"
    trunc.write_bytes(raw[:-3])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(trunc)
    vers = tmp_path / "vers.syd1"
    vers.write_bytes(raw[:4] + bytes([9]) + raw[5:])
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(vers)
    trunc.write_bytes(raw[:4])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(trunc)
    # every proper prefix fails with ValueError or holds the first arrays
    names = list(state)
    for cut in range(len(raw)):
        trunc.write_bytes(raw[:cut])
        try:
            got = load_checkpoint(trunc)
        except ValueError:
            continue
        assert list(got) == names[:len(got)] and len(got) < len(names)
        for k in got:
            assert np.array_equal(got[k], np.asarray(state[k], dtype=np.float32))


def test_run_log_round_trip(tmp_path):
    # a dev eval's rows are on disk while the run and its log are still open
    codec, encs = small_data(24, seed=22)
    path = tmp_path / "log.jsonl"
    seen = []

    def step(encs, idxs):
        seen.append(read_log(path))
        return {"loss": 0.5}

    with RunLog(path) as log:
        run_loop(small_student(codec), RunState(seed=0), encs[:16], step, 3, encs[16:],
                 batch_size=4, eval_every=2, patience=5, log=log)
    rows = read_log(path)
    assert seen[2] == rows[:4]
    assert [(r["iteration"], r["split"], r["metric"]) for r in rows] == [
        (1, "train", "loss"), (2, "train", "loss"), (2, "dev", "accuracy"),
        (2, "dev", "macro_f1"), (3, "train", "loss")]
    assert rows[0]["value"] == 0.5


# ------------------------------------------------------------------ batching

def test_batch_sampler_same_length_and_deterministic():
    codec, encs = small_data(40, seed=3)
    sampler = BatchSampler(encs)
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(30):
        idxs = sampler.draw(rng, 8)
        lengths = {encs[i].main.n for i in idxs}
        assert len(lengths) == 1
        assert len(set(idxs)) == len(idxs)  # no duplicates within a batch
        seen.update(idxs)
    assert len(seen) > 20  # wide coverage
    a = BatchSampler(encs).draw(np.random.default_rng(7), 8)
    b = BatchSampler(encs).draw(np.random.default_rng(7), 8)
    assert a == b
    with pytest.raises(ValueError):
        BatchSampler([])


# ------------------------------------------------------------------- metrics

def test_classification_metrics_identities():
    out = classification_metrics([0, 1, 0, 1], [0, 1, 0, 1])
    assert out["accuracy"] == 100.0 and out["macro_f1"] == 100.0
    out = classification_metrics([0, 1, 0, 1], [1, 1, 1, 1])
    assert out["accuracy"] == 50.0


def test_classification_metrics_hand_fixture():
    # 10 examples, 3 classes; confusion rows (gold x pred):
    # gold0: 3 as 0, 1 as 1 | gold1: 2 as 1, 1 as 2 | gold2: 1 as 0, 2 as 2
    golds = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    preds = [0, 0, 0, 1, 1, 1, 2, 0, 2, 2]
    # class0: P=3/4, R=3/4, F1=0.75 ; class1: P=2/3, R=2/3, F1=2/3
    # class2: P=2/3, R=2/3, F1=2/3 ; macro = (0.75 + 2/3 + 2/3)/3
    out = classification_metrics(golds, preds)
    assert out["accuracy"] == pytest.approx(70.0)
    assert out["macro_f1"] == pytest.approx(100 * (0.75 + 2 / 3 + 2 / 3) / 3, abs=1e-9)


def test_tagging_metrics_identities():
    gold = [[1, 1, 0, 2]]
    assert tagging_metrics(gold, [[1, 1, 0, 2]], o_id=0)["token_f1"] == 100.0
    # one missed positive, one spurious positive, two correct positives
    pred = [[1, 0, 1, 2]]
    out = tagging_metrics(gold, pred, o_id=0)
    # tp=2 (pos 0 and 3), fp=1 (pos 2), fn=1 (pos 1): P=R=2/3
    assert out["token_f1"] == pytest.approx(100 * 2 / 3, abs=1e-9)
    assert out["accuracy"] == 50.0
    assert dev_metric_key("tag") == "token_f1"
    assert dev_metric_key("cls") == "accuracy"


def test_evaluate_empty_rejected():
    codec, encs = small_data(8)
    student = small_student(codec)
    with pytest.raises(ValueError):
        evaluate(student, [])


# --------------------------------------------------- batched student forward

def test_student_batched_matches_single():
    codec, encs = small_data(24, seed=4)
    student = small_student(codec)
    group = [e for e in encs if e.main.n == encs[0].main.n][:5]
    logits = student.logits(group)
    for b, enc in enumerate(group):
        single = student.logits([enc])
        np.testing.assert_allclose(logits.data[b], single.data[0], atol=1e-5)


def test_student_predict_ignores_trees():
    # the student reads token ids only, so predicting, evaluating and induce
    # decoding build none of the sides' parse views
    codec, encs = small_data(16, seed=6, task="pair")
    student = small_student(codec)
    predict(student, encs)
    evaluate(student, encs)
    main = student.reps([enc.main for enc in encs])
    soft_arc_targets(student.struct_heads["dep"], main)
    soft_con_targets(student.struct_heads["con"], main)
    views = {name for name, attr in vars(EncodedSide).items()
             if isinstance(attr, functools.cached_property)}
    assert views >= {"heads", "dep_label_ids", "dep_view", "bintree", "con_tree", "con_gcn"}
    for enc in encs:
        for side in (enc.main, enc.partner):
            assert not views & set(vars(side))
    # a teacher builds the views it reads, and only those
    gcn_dep = make_teacher("gcn-dep", codec, emb_dim=10, n_layers=1, rng=np.random.default_rng(2))
    predict(gcn_dep, encs[:1])
    assert views & set(vars(encs[0].main)) == {"dep_view"}


def test_pair_and_tag_tasks_run():
    for task in ("pair", "tag"):
        codec, encs = small_data(16, seed=7, task=task)
        student = small_student(codec)
        out = evaluate(student, encs)
        key = dev_metric_key(task)
        assert 0.0 <= out[key] <= 100.0


# ------------------------------------------------------------ teacher train

def test_train_teacher_beats_majority(tmp_path):
    codec, encs = small_data(90, seed=8)
    train, dev = encs[:72], encs[72:]
    model = GcnModel(codec, "dep", emb_dim=16, n_layers=1,
                     rng=np.random.default_rng(3))
    log = RunLog(tmp_path / "log.jsonl")
    state = train_teacher(model, train, dev, iters=300, batch_size=8, lr=1e-2,
                          eval_every=40, patience=20, seed=0, log=log)
    log.close()
    labels = [e.raw.label for e in dev]
    majority = 100.0 * max(labels.count(0), labels.count(1)) / len(labels)
    acc = evaluate(model, dev)["accuracy"]
    assert acc > majority
    rows = read_log(tmp_path / "log.jsonl")
    assert any(r["metric"] == "n_params" for r in rows)
    assert any(r["split"] == "dev" for r in rows)

    # checkpoint round trip preserves the metric exactly
    save_checkpoint(tmp_path / "t.syd1", model.p.state_dict())
    fresh = GcnModel(codec, "dep", emb_dim=16, n_layers=1,
                     rng=np.random.default_rng(99))
    loaded = load_checkpoint(tmp_path / "t.syd1")
    fresh.p.load_state_dict(loaded)
    assert evaluate(fresh, dev)["accuracy"] == acc
    # the loaded model owns its arrays: none aliases the checkpoint's bytes
    assert not any(np.shares_memory(fresh.p[k].data, arr) for k, arr in loaded.items())


def test_co_trained_teachers_feed_soft_distillation(tmp_path):
    # structure heads co-trained on dep and con teachers, then a soft-target
    # mode-B distillation through the early and the joint phase
    codec, encs = small_data(24, seed=21)
    teachers = small_teachers(codec)
    for m in teachers.all:
        m.add_structure_head(m.structure)
        head = {n: m.p[n].data.copy() for n in m.p.names() if n.startswith(("arc/", "span/"))}
        state = train_teacher(m, encs, None, iters=3, batch_size=6, lr=1e-2, seed=0,
                              co_train_struct=True)
        assert len(state.trace) == 3
        assert all(not np.array_equal(m.p[n].data, v) for n, v in head.items()
                   if n.endswith(("/W", "/Wd", "/Wl"))), m.kind
    cfg = DistillConfig(total_iters=4, teacher_mode="soft")
    signals = TeacherSignals(teachers, encs, cfg, len(codec.dep_labels))
    for m in teachers.all:
        assert len(signals.targets[m.kind]) == len(encs)
        for enc, target in zip(encs, signals.targets[m.kind]):
            if m.structure == "dep":
                arc, lab, best = target
                assert arc.shape == (enc.main.n, enc.main.n + 1)
                np.testing.assert_allclose(arc.sum(axis=1), 1.0, atol=1e-6)
                np.testing.assert_array_equal(best, arc.argmax(axis=1))
            else:
                assert target.n == enc.main.n
    log = RunLog(tmp_path / "log.jsonl")
    state = distill_student(small_student(codec), teachers, encs, None, cfg,
                            Schedule(total=4, g1=2, g2=1), batch_size=4, lr=1e-3,
                            seed=0, log=log, signals=signals)
    log.close()
    assert {what for _, what in state.trace} >= {
        "dep/tlstm-dep", "dep/gcn-dep", "con/tlstm-con", "con/gcn-con", "all"}
    syn = [r["value"] for r in read_log(tmp_path / "log.jsonl") if r["metric"] == "loss_syn"]
    assert len(syn) == 4 and np.isfinite(syn).all() and min(syn) > 0.0


def test_soft_targets_need_every_teachers_structure_head(monkeypatch):
    # a head-less teacher is named before any teacher runs a forward pass
    codec, encs = small_data(12, seed=22)
    teachers = small_teachers(codec)
    teachers.dep[0].add_structure_head("dep")
    for m in teachers.all:
        monkeypatch.setattr(m, "reps", lambda *a, **k: pytest.fail("forward pass"))
    with pytest.raises(DistillError, match=f"teacher {teachers.dep[1].kind} has no structure"):
        TeacherSignals(teachers, encs, DistillConfig(teacher_mode="soft"),
                       len(codec.dep_labels))
    monkeypatch.undo()
    gcn_dep = small_teachers(codec).dep[1]
    with pytest.raises(DistillError, match="teacher gcn-dep has no structure head"):
        distill_student(small_student(codec), TeacherSet(dep=[gcn_dep]), encs, None,
                        DistillConfig(teacher_mode="soft"), Schedule(total=2, g1=1, g2=1),
                        batch_size=4, seed=0)
    # mode A reads features, not structure heads
    TeacherSignals(TeacherSet(dep=[gcn_dep]), encs, DistillConfig(mode="A", teacher_mode="soft"),
                   len(codec.dep_labels))


def test_hard_targets_shared_per_structure():
    # one target per example, straight from its parse; in hard mode the
    # teachers of one structure share one target list
    codec, encs = small_data(40, seed=22, max_len=12)
    n_labels = len(codec.dep_labels)
    got = hard_targets("dep", encs, n_labels)
    assert len(got) == len(encs) and hard_targets("dep", [], n_labels) == []
    for enc, (arc, lab, heads) in zip(encs, got):
        assert arc.shape == (enc.main.n, enc.main.n + 1) and lab.shape == (enc.main.n, n_labels)
        np.testing.assert_array_equal(arc.argmax(axis=1), enc.main.heads)
        np.testing.assert_array_equal(lab.argmax(axis=1), enc.main.dep_label_ids)
        np.testing.assert_array_equal(heads, enc.main.heads)
    assert [t.n for t in hard_targets("con", encs, n_labels)] == [e.main.n for e in encs]
    signals = TeacherSignals(small_teachers(codec), encs, DistillConfig(), n_labels)
    assert signals.targets["tlstm-dep"] is signals.targets["gcn-dep"]
    assert signals.targets["tlstm-con"] is signals.targets["gcn-con"]
    for a, b in zip(signals.targets["gcn-dep"], got):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_zero_syntax_weight_builds_no_structure_target_or_feature(monkeypatch):
    # with lam1 = 0 the syntax loss never runs, so TeacherSignals builds none
    # of what it reads; the teachers' class distributions are still computed
    codec, encs = small_data(16, seed=23)
    teachers = small_teachers(codec)
    for m in teachers.all:
        m.add_structure_head(m.structure)
    for name in ("hard_targets", "soft_arc_targets", "soft_con_targets"):
        monkeypatch.setattr(TR, name, lambda *a, **k: pytest.fail("target built"))
    for mode, teacher_mode in (("A", "hard"), ("B", "hard"), ("B", "soft")):
        cfg = DistillConfig(lam1=0.0, mode=mode, teacher_mode=teacher_mode)
        signals = TeacherSignals(teachers, encs, cfg, len(codec.dep_labels))
        assert signals.feats is None
        assert all(targets == [] for targets in signals.targets.values())
        assert all(len(signals.task_dists[m.kind]) == len(encs) for m in teachers.all)


def test_zero_syntax_weight_gives_the_same_student_in_hard_and_soft_mode():
    codec, encs = small_data(20, seed=24)
    teachers = small_teachers(codec)
    for m in teachers.all:
        m.add_structure_head(m.structure)
    outcomes = []
    for teacher_mode in ("hard", "soft"):
        student = small_student(codec, seed=5)
        state = distill_student(student, teachers, encs[:16], encs[16:],
                                DistillConfig(lam1=0.0, teacher_mode=teacher_mode),
                                Schedule(total=4, g1=2, g2=1), batch_size=4, lr=1e-3,
                                eval_every=2, seed=0)
        outcomes.append((student.p.state_dict(), state.trace, state.history))
    (hard, *rest), (soft, *soft_rest) = outcomes
    assert rest == soft_rest and list(hard) == list(soft)
    assert all(hard[name].tobytes() == soft[name].tobytes() for name in hard)


def test_train_teacher_missing_annotation():
    codec, encs = small_data(8, seed=9)
    bare = [codec.encode(Example(e.raw.sent, None, None, label=e.raw.label))
            for e in encs]
    model = GcnModel(codec, "dep", emb_dim=8, n_layers=1,
                     rng=np.random.default_rng(0))
    with pytest.raises(DataError, match="dependency"):
        train_teacher(model, bare, None, iters=1)


# -------------------------------------------------------------- distillation

def hand_trace(sched, kinds, lam1=0.6, lam2=0.2):
    rows = []
    for t in range(1, sched.total + 1):
        if t <= sched.g1:
            if lam2 > 0:
                rows.append((t, "sem"))
            dep_turn = sched.dep_turn(t)
            for kind in kinds:
                rows.append((t, f"output/{kind}"))
                structure = "dep" if kind.endswith("-dep") else "con"
                if lam1 > 0 and (structure == "dep") == dep_turn:
                    rows.append((t, f"{structure}/{kind}"))
        else:
            rows.append((t, "all"))
    return rows


def test_algorithm_trace_matches_hand_simulation():
    codec, encs = small_data(24, seed=10)
    student = small_student(codec)
    teachers = small_teachers(codec)
    before = [params_fingerprint(m.p) for m in teachers.all]
    sched = Schedule(total=6, g1=4, g2=2)
    cfg = DistillConfig(total_iters=6)
    state = distill_student(student, teachers, encs, None, cfg, sched,
                            batch_size=4, lr=1e-3, seed=0)
    kinds = [m.kind for m in teachers.all]
    assert kinds == list(TEACHER_KINDS)
    assert state.trace == hand_trace(sched, kinds)
    # frozen teachers: bitwise unchanged
    assert [params_fingerprint(m.p) for m in teachers.all] == before


def test_degenerate_config_trace():
    codec, encs = small_data(16, seed=11)
    student = small_student(codec)
    teachers = small_teachers(codec)
    sched = Schedule(total=3, g1=2, g2=1)
    cfg = DistillConfig(lam1=0.0, lam2=0.0, alpha_fixed=1.0, total_iters=3)
    state = distill_student(student, teachers, encs, None, cfg, sched,
                            batch_size=4, lr=1e-3, seed=0)
    expected = hand_trace(sched, list(TEACHER_KINDS), lam1=0.0, lam2=0.0)
    assert state.trace == expected
    assert all("sem" not in w and "dep/" not in w and "con/" not in w
               for _, w in state.trace)


def test_distill_component_log_zeroes(tmp_path):
    codec, encs = small_data(16, seed=12)
    student = small_student(codec)
    teachers = small_teachers(codec)
    sched = Schedule(total=3, g1=1, g2=1)
    cfg = DistillConfig(lam1=0.0, lam2=0.0, alpha_fixed=1.0, total_iters=3)
    with RunLog(tmp_path / "log.jsonl") as log:
        distill_student(student, teachers, encs, None, cfg, sched,
                        batch_size=4, lr=1e-3, seed=0, log=log)
    rows = read_log(tmp_path / "log.jsonl")
    syn = [r for r in rows if r["metric"] == "loss_syn"]
    sem = [r for r in rows if r["metric"] == "loss_sem"]
    out = [r for r in rows if r["metric"] == "loss_output"]
    assert len(syn) == 3 and len(sem) == 3 and len(out) == 3
    assert all(r["value"] == 0.0 for r in syn + sem)
    assert all(r["value"] > 0.0 for r in out)


def test_distill_one_sided_teacher_sets():
    # a teacher set with only one structure type must survive the joint
    # phase: the lone group keeps full weight under the eta mixture
    codec, encs = small_data(16, seed=19)
    full = small_teachers(codec)
    for tset in (TeacherSet(dep=full.dep, con=[]),
                 TeacherSet(dep=[], con=full.con)):
        student = small_student(codec)
        sched = Schedule(total=3, g1=1, g2=1)
        state = distill_student(student, tset, encs, None,
                                DistillConfig(total_iters=3), sched,
                                batch_size=4, lr=1e-3, seed=0)
        assert (3, "all") in state.trace


def test_syntax_step_encodes_main_side_once(monkeypatch):
    codec, encs = small_data(16, seed=20, task="pair")
    student = small_student(codec)
    teacher = make_teacher("gcn-dep", codec, emb_dim=10, n_layers=1,
                           rng=np.random.default_rng(2))
    calls = []
    encode = StudentEncoder.encode_batch

    def counted(self, ids, train=False, rng=None):
        calls.append(np.array(ids))
        return encode(self, ids, train, rng)

    monkeypatch.setattr(StudentEncoder, "encode_batch", counted)
    state = distill_student(student, TeacherSet(dep=[teacher]), encs, None,
                            DistillConfig(lam2=0.0), Schedule(total=1, g1=1, g2=1),
                            batch_size=4, lr=1e-3, seed=0)
    assert state.trace == [(1, "output/gcn-dep"), (1, "dep/gcn-dep")]
    # the output step encodes both sides, the syntax step the main side only
    assert len(calls) == 3
    np.testing.assert_array_equal(calls[2], calls[0])


def full_stack_lm_states(enc, ids, train=False, rng=None):
    """The first layer's forward states read off a run of the whole stack,
    both directions of every layer, with the top rows gathered first: the
    path the masked-word step took before StudentEncoder.lm_states."""
    x, counts, pos = enc._embed(ids, train, rng)
    for l, layer in enumerate(enc.layers):
        fwd, bwd = (enc._scan(x, layer, d, counts) for d in ("f", "b"))
        if l == 0:
            l1f = fwd
        x = T.concat([fwd, bwd], axis=1)
    T.embedding(x, pos)
    return T.embedding(l1f, pos)


@pytest.mark.parametrize("task", ["cls", "pair"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lm_step_matches_full_stack_read_bitwise(task, dtype, monkeypatch):
    # the masked-word step on lm_states against the same step reading l1f
    # off the whole stack: same loss, every gradient, and the same draws
    codec, encs = small_data(16, seed=31, task=task)
    batch = [e for e in encs if e.main.n > 2][:6]
    cfg = DistillConfig(mask_ratio=0.3)

    def masked(seed):  # the positions the step masks, drawn first from its generator
        draws = np.random.default_rng(seed)
        return [sample_mask_positions(e.main.n, cfg.mask_ratio, draws) for e in batch]

    # a batch that masks position 0 (the begin state) and later positions
    seed = next(s for s in range(50) if any(0 in pos for pos in masked(s)))
    assert any(max(pos) > 0 for pos in masked(seed))

    def lm_step():
        student = StudentModel(codec, emb_dim=10, hidden=8, n_layers=3,
                               rng=np.random.default_rng(1), dtype=dtype)
        rng = np.random.default_rng(seed)
        with T.Tape() as tape:
            loss = sem_loss_batch(student, batch, cfg, rng)
            tape.backward(loss)
        grads = {n: student.p[n].grad for n in student.p.names()}
        return loss.data, grads, rng.bit_generator.state

    got = lm_step()
    monkeypatch.setattr(StudentEncoder, "lm_states", full_stack_lm_states)
    want = lm_step()
    assert got[0].dtype == dtype and got[0].tobytes() == want[0].tobytes()
    assert got[1].keys() == want[1].keys()
    for name, g in got[1].items():
        assert (g is None) == (want[1][name] is None), name
        if g is not None:
            assert g.dtype == dtype and g.tobytes() == want[1][name].tobytes(), name
    # the LM loss reads layer 0's forward direction and nothing above it
    assert got[1]["enc/l0f/W"] is not None and got[1]["enc/l0b/W"] is None
    assert got[2] == want[2]


def test_lm_step_runs_one_lstm_scan(monkeypatch):
    codec, encs = small_data(16, seed=32)
    student = small_student(codec, layers=3)
    scans = []
    scan = T.lstm_scan

    def counted(*args, **kwargs):
        scans.append(kwargs.get("reverse", False))
        return scan(*args, **kwargs)

    monkeypatch.setattr(T, "lstm_scan", counted)
    with T.Tape():
        sem_loss_batch(student, encs[:8], DistillConfig(), np.random.default_rng(0))
    assert scans == [False]
    with T.Tape():
        student.reps([e.main for e in encs[:8]], True, np.random.default_rng(0))
    assert len(scans) == 1 + 2 * 3


def test_distill_mode_a_runs_and_registers_projections():
    codec, encs = small_data(16, seed=13)
    student = small_student(codec)
    teachers = small_teachers(codec)
    sched = Schedule(total=2, g1=2, g2=1)
    cfg = DistillConfig(mode="A", total_iters=2)
    distill_student(student, teachers, encs, None, cfg, sched,
                    batch_size=4, lr=1e-3, seed=0)
    assert "proj/f_s/W" in student.p.names()
    for kind in TEACHER_KINDS:
        assert f"proj/f_t/{kind}/W" in student.p.names()


def test_distill_vocab_mismatch():
    codec_a, encs = small_data(16, seed=14)
    codec_b, _ = small_data(16, seed=15, max_len=7)
    assert codec_a.vocab.itos != codec_b.vocab.itos or True
    student = small_student(codec_a)
    teachers = small_teachers(codec_b)
    if codec_a.vocab.itos == codec_b.vocab.itos:
        pytest.skip("sampled vocabularies coincide")
    with pytest.raises(DistillError, match="vocab"):
        distill_student(student, teachers, encs, None,
                        DistillConfig(total_iters=2), Schedule(total=2, g1=1, g2=1),
                        batch_size=4, seed=0)


def test_distill_nan_abort():
    codec, encs = small_data(12, seed=16)
    student = small_student(codec)
    student.p["enc/emb"].data[:] = np.nan
    with pytest.raises(FloatingPointError, match="iteration 1"):
        distill_student(student, None, encs, None,
                        DistillConfig(total_iters=2), Schedule(total=2, g1=1, g2=1),
                        batch_size=4, seed=0)


def test_nonfinite_loss_names_its_objective_in_the_log(tmp_path):
    # the row is flushed before the error leaves, so it is on disk even
    # while the log is still open
    codec, encs = small_data(12, seed=16)
    teachers = small_teachers(codec)
    for student_teachers, objective in ((None, "supervised"), (teachers, "sem")):
        student = small_student(codec)
        student.p["enc/emb"].data[:] = np.nan
        path = tmp_path / f"{objective}.jsonl"
        with RunLog(path) as log:
            with pytest.raises(FloatingPointError, match="iteration 1"):
                distill_student(student, student_teachers, encs, None,
                                DistillConfig(), Schedule(total=2, g1=1, g2=1),
                                batch_size=4, seed=0, log=log)
            assert read_log(path) == [{"iteration": 1, "split": "train",
                                       "metric": f"nonfinite/{objective}", "value": 1.0}]


def test_optimize_skips_constant_loss():
    # a loss with no parameter ancestry (e.g. every hinge in the batch at
    # zero) must be a logged no-op, not a backward error
    from synkd.tensor import Adam, Tensor
    from synkd.train import RunState, _optimize

    w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    state = RunState(seed=0, adam=Adam([w], lr=0.1))
    before = w.data.copy()
    val = _optimize(state, lambda: Tensor(np.array(3.0, dtype=np.float32)), "syn")
    assert val == 3.0
    assert state.trace == [(1, "syn")]
    assert np.array_equal(w.data, before)


def test_supervised_path_and_early_stopping():
    codec, encs = small_data(40, seed=17)
    student = small_student(codec)
    state = distill_student(student, None, encs[:32], encs[32:],
                            DistillConfig(total_iters=40),
                            Schedule(total=40, g1=1, g2=1),
                            batch_size=8, lr=1e-2, eval_every=5, patience=2, seed=0)
    assert all(w == "supervised" for _, w in state.trace)
    assert state.history  # dev evals happened
    assert state.best_iter > 0
    # best params were restored
    assert params_fingerprint(student.p) is not None


def test_identical_seeds_give_bitwise_identical_runs():
    results = []
    for _ in range(2):
        codec, encs = small_data(24, seed=18)
        student = small_student(codec, seed=5)
        teachers = small_teachers(codec, seed=6)
        sched = Schedule(total=4, g1=2, g2=1)
        state = distill_student(student, teachers, encs[:20], encs[20:],
                                DistillConfig(total_iters=4), sched,
                                batch_size=4, lr=1e-3, eval_every=2,
                                patience=10, seed=0)
        results.append((params_fingerprint(student.p), tuple(state.trace),
                        json.dumps(state.history)))
    assert results[0] == results[1]


def test_resume_reproduces_trajectory(tmp_path):
    def fresh():
        codec, encs = small_data(24, seed=19)
        student = small_student(codec, seed=5)
        teachers = small_teachers(codec, seed=6)
        return codec, encs, student, teachers

    sched = Schedule(total=6, g1=3, g2=1)
    cfg = DistillConfig(total_iters=6)

    _, encs, student_a, teachers_a = fresh()
    state_a = distill_student(student_a, teachers_a, encs[:20], encs[20:],
                              cfg, sched, batch_size=4, lr=1e-3,
                              eval_every=2, patience=10, seed=0)

    _, encs_b, student_b, teachers_b = fresh()
    state_b = distill_student(student_b, teachers_b, encs_b[:20], encs_b[20:],
                              cfg, sched, batch_size=4, lr=1e-3,
                              eval_every=2, patience=10, seed=0, stop_after=3)
    assert state_b.t == 3
    save_run_state(tmp_path / "run", student_b, state_b)

    _, encs_c, student_c, teachers_c = fresh()
    prepare_student(student_c, teachers_c, cfg)
    state_c = load_run_state(tmp_path / "run", student_c)
    assert state_c.t == 3
    state_c = distill_student(student_c, teachers_c, encs_c[:20], encs_c[20:],
                              cfg, sched, batch_size=4, lr=1e-3,
                              eval_every=2, patience=10, seed=0, state=state_c)

    assert params_fingerprint(student_c.p) == params_fingerprint(student_a.p)
    assert state_c.trace == state_a.trace
    assert state_c.history == state_a.history
    assert state_c.best_iter == state_a.best_iter


def test_loads_write_into_the_optimizer_buffers(tmp_path):
    # a state loaded after the optimizer exists lands in its flat buffer:
    # a step then moves the loaded model, and every parameter still views one
    codec, encs = small_data(24, seed=19)
    student = small_student(codec)
    adam = Adam(student.parameters(), lr=1e-2)
    loaded = small_student(codec, seed=7).p.state_dict()
    student.p.load_state_dict(loaded)
    for name, p in zip(student.p.names(), student.parameters()):
        assert p.data.tobytes() == loaded[name].tobytes()
        p.grad = np.ones_like(p.data)
    assert adam.step()
    for name, p in zip(student.p.names(), student.parameters()):
        assert not np.array_equal(p.data, loaded[name]), name
        assert np.shares_memory(p.data, adam.buffer), name

    # run state: parameters and moments are copied into the new optimizer
    state = distill_student(student, None, encs, None, DistillConfig(),
                            Schedule(total=2, g1=1, g2=1), batch_size=4, lr=1e-2,
                            seed=0, stop_after=2)
    save_run_state(tmp_path / "run", student, state)
    fresh = small_student(codec)
    back = load_run_state(tmp_path / "run", fresh)
    moments = load_checkpoint(tmp_path / "run" / "adam.syd1")
    for name, p, m in zip(fresh.p.names(), fresh.parameters(),
                          back.adam.views(back.adam.state["m"])):
        assert np.shares_memory(p.data, back.adam.buffer), name
        assert m.tobytes() == moments[f"m/{name}"].tobytes(), name
    assert params_fingerprint(fresh.p) == params_fingerprint(student.p)

    # a moment of the wrong shape is refused at load, naming its parameter
    name = fresh.p.names()[1]
    moments[f"v/{name}"] = moments[f"v/{name}"].reshape(-1)[:-1]
    save_checkpoint(tmp_path / "run" / "adam.syd1", moments)
    with pytest.raises(ValueError, match=f"adam v shape .* param {name!r}"):
        load_run_state(tmp_path / "run", small_student(codec))


def test_resume_keeps_the_skipped_count_of_a_run_that_only_skipped(tmp_path):
    # every step so far had a non-finite gradient: no update was applied, yet
    # the optimizer state exists and its skipped count must come back
    codec, _ = small_data(12, seed=19)
    student = small_student(codec)
    state = RunState(seed=0, adam=Adam(student.parameters(), lr=1e-2))
    for _ in range(3):
        for p in student.parameters():
            p.grad = np.full_like(p.data, np.nan)
        assert not state.adam.step()
    save_run_state(tmp_path / "run", student, state)
    back = load_run_state(tmp_path / "run", small_student(codec))
    assert (back.adam.state["t"], back.adam.skipped) == (0, 3)
    assert not back.adam.state["m"].any() and not back.adam.state["v"].any()


# ------------------------------------------------- shared loop vs reference

def run_outcome(model, state, log_path):
    return (params_fingerprint(model.p), state.trace, state.history, state.best_iter,
            state.stopped, log_path.read_bytes())


def teacher_outcome(train, codec, encs, kind, co_train_struct, log_path):
    model = make_teacher(kind, codec, emb_dim=6, hidden=4, n_layers=1,
                         rng=np.random.default_rng(3))
    with RunLog(log_path) as log:
        state = train(model, encs[:14], encs[14:], iters=6, batch_size=4, lr=1e-2,
                      eval_every=2, patience=2, seed=0, log=log,
                      co_train_struct=co_train_struct)
    return run_outcome(model, state, log_path)


STUDENT_CASES = {
    "supervised": dict(teachers=False),
    "mode-A": dict(cfg=DistillConfig(mode="A")),
    "hard": dict(),
    "hard-eta1": dict(cfg=DistillConfig(eta=1.0)),
    "soft": dict(cfg=DistillConfig(teacher_mode="soft")),
    "soft-eta1": dict(cfg=DistillConfig(teacher_mode="soft", eta=1.0)),
    "early-stop": dict(teachers=False, lr=0.1, eval_every=1, patience=1),
    "resume": dict(stop_after=3),
}


def student_outcome(distill, codec, encs, teachers, case, run_dir):
    opts = dict(cfg=DistillConfig(), lr=1e-2, eval_every=2, patience=3, stop_after=None)
    opts.update(STUDENT_CASES[case])
    tset = teachers if opts.pop("teachers", True) else None
    cfg, stop_after = opts.pop("cfg"), opts.pop("stop_after")
    args = (encs[:14], encs[14:], cfg, Schedule(total=6, g1=3, g2=1))
    student = small_student(codec)
    run_dir.mkdir()
    log_path = run_dir / "log.jsonl"
    with RunLog(log_path) as log:
        state = distill(student, tset, *args, batch_size=4, seed=0, log=log,
                        stop_after=stop_after, **opts)
    if stop_after is not None:
        assert state.t == stop_after
        save_run_state(run_dir, student, state)
        student = small_student(codec)
        prepare_student(student, tset, cfg)
        with RunLog(log_path) as log:
            state = distill(student, tset, *args, batch_size=4, seed=0, log=log,
                            state=load_run_state(run_dir, student), **opts)
    return run_outcome(student, state, log_path)


@pytest.mark.parametrize("task", ["cls", "tag", "pair"])
def test_run_loop_bitwise_matches_reference(task, tmp_path):
    # both training functions on the shared run_loop against verbatim copies
    # of their former per-function loops: parameters, trace, dev history,
    # best iteration, early stop and run-log bytes are equal
    codec, encs = small_data(20, seed=31, task=task, max_len=6)
    teachers = small_teachers(codec)
    for m in teachers.all:
        m.add_structure_head(m.structure)
    for kind in TEACHER_KINDS:
        for co in (False, True):
            got, want = (teacher_outcome(train, codec, encs, kind, co,
                                         tmp_path / f"{who}-{kind}-{co}.jsonl")
                         for who, train in (("new", train_teacher),
                                            ("ref", reference_train_teacher)))
            assert got == want, (kind, co)
    for case in STUDENT_CASES:
        got, want = (student_outcome(distill, codec, encs, teachers, case,
                                     tmp_path / f"{who}-{case}")
                     for who, distill in (("new", distill_student),
                                          ("ref", reference_distill_student)))
        assert got == want, case
        if case == "early-stop":
            assert want[4], "the early-stop case must stop early"

