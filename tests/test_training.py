import json
import re
from dataclasses import replace

import numpy as np
import pytest

from moectr import training
from moectr.autodiff import ParamStore, ShapeError, Tape
from moectr.data import (
    Dataset,
    SyntheticSpec,
    domain_batches,
    generate_synthetic,
    split_dataset,
)
from moectr.models import AdapterConfig, FeatureSchema, build_model
from moectr.training import (
    AdamState,
    NumericError,
    TrainConfig,
    _stop_early,
    adam_step,
    run_phase1,
    run_phase2,
    run_phase3,
    train_pipeline,
)

FAST = TrainConfig(lr=5e-3, gate_lr=2e-2, batch_size=64, epochs=(3, 3, 3), seed=0)


def small_synth(seed=0, n_domains=2, divergence=0.6):
    spec = SyntheticSpec(n_domains=n_domains, n_users=150, n_items=80,
                         rows_per_domain=700, divergence=divergence, seed=seed)
    return generate_synthetic(spec)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=(5, 5))
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("cls,field_name,value", [
    (TrainConfig, "lr", float("nan")),
    (TrainConfig, "gate_lr", float("inf")),
    (TrainConfig, "seed", -1),
    (TrainConfig, "seed", 2.5),
    (TrainConfig, "epochs", (1.5, 2, 2)),
    (TrainConfig, "batch_size", 2.5),
    (TrainConfig, "batch_size", True),
    (TrainConfig, "patience", 2.5),
    (AdapterConfig, "alpha", float("nan")),
    (AdapterConfig, "alpha", -1.0),
    (AdapterConfig, "alpha", 0.0),
    (AdapterConfig, "rank", 2.5),
    (AdapterConfig, "rank", True),
    (AdapterConfig, "experts_per_domain", 1.0),
    (SyntheticSpec, "seed", -1),
    (SyntheticSpec, "seed", 2.5),
    (SyntheticSpec, "seed", True),
    (SyntheticSpec, "divergence", True),
    (SyntheticSpec, "positive_rate", "0.5"),
])
def test_bad_config_value_is_an_error_naming_the_field(cls, field_name, value):
    with pytest.raises(ValueError, match=rf"^{field_name} must be "):
        cls(**{field_name: value})


def test_adam_single_step_matches_hand_recurrence():
    store = ParamStore()
    store.add("w", np.array([1.0]), "backbone")
    state = AdamState(store, ["w"])
    g = np.array([0.3])
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    adam_step(store, {"w": g}, state, lr)
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    want = 1.0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    np.testing.assert_allclose(store.get("w"), want, rtol=0, atol=1e-12)
    # After bias correction the first step is nearly lr * sign(g).
    assert abs((1.0 - store.get("w")[0]) - lr * np.sign(g[0])) < 1e-6


def test_adam_multi_step_matches_reference_loop():
    store = ParamStore()
    store.add("w", np.array([0.5, -1.0]), "backbone")
    state = AdamState(store, ["w"])
    rng = np.random.default_rng(0)
    w = np.array([0.5, -1.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 8):
        g = rng.normal(size=2)
        adam_step(store, {"w": g.copy()}, state, 0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(store.get("w"), w, atol=1e-12)


def test_adam_zero_grad_and_frozen_params():
    store = ParamStore()
    store.add("a", np.array([2.0]), "backbone")
    store.add("b", np.array([3.0]), "gate")
    state = AdamState(store, ["a"])
    # A gradient for a tensor the state does not step is refused, not ignored.
    with pytest.raises(ValueError, match=re.escape(
            "steps ['a'], but the gradients name ['a', 'b']")):
        adam_step(store, {"a": np.array([1.0]), "b": np.array([9.9])}, state, 0.1)
    assert state.t == 0 and not state.m["a"].any()
    adam_step(store, {"a": np.array([0.0])}, state, 0.1)
    assert state.t == 1
    np.testing.assert_array_equal(store.get("a"), [2.0])  # zero grad, fresh state
    np.testing.assert_array_equal(store.get("b"), [3.0])  # not stepped, stays put


def test_adam_rejects_non_finite_gradient():
    store = ParamStore()
    store.add("w", np.array([1.0]), "backbone")
    state = AdamState(store, ["w"])
    with pytest.raises(NumericError, match="'w'"):
        adam_step(store, {"w": np.array([np.inf])}, state, 0.1)
    assert state.t == 0 and not state.m["w"].any() and not state.v["w"].any()


def test_adam_rejects_a_gradient_shaped_unlike_its_parameter():
    store = ParamStore()
    store.add("b", np.ones(2), "backbone")
    store.add("w", np.zeros(4), "backbone")
    state = AdamState(store, ["b", "w"])
    # A (1,) gradient would broadcast over all four entries of "w".
    with pytest.raises(ShapeError, match=r"'w'.*\(1,\).*\(4,\)"):
        adam_step(store, {"b": np.ones(2), "w": np.array([0.5])}, state, 0.1)
    assert state.t == 0 and not any(a.any() for a in [*state.m.values(), *state.v.values()])
    np.testing.assert_array_equal(store.get("b"), np.ones(2))
    np.testing.assert_array_equal(store.get("w"), np.zeros(4))


def test_adam_checks_gradient_shapes_on_every_step():
    store = ParamStore()
    store.add("w", np.zeros(4), "backbone")
    state = AdamState(store, ["w"])
    adam_step(store, {"w": np.ones(4)}, state, 0.1)
    w, m, v = store.get("w").copy(), state.m["w"].copy(), state.v["w"].copy()
    # Same names, so the flat layout is reused; the size fits, the shape does not.
    with pytest.raises(ShapeError, match=r"'w'.*\(2, 2\).*\(4,\)"):
        adam_step(store, {"w": np.array([[1.0, 2.0], [3.0, 4.0]])}, state, 0.1)
    assert state.t == 1
    np.testing.assert_array_equal(store.get("w"), w)
    np.testing.assert_array_equal(state.m["w"], m)
    np.testing.assert_array_equal(state.v["w"], v)


def reference_adam_step(store, grads, ref, lr):
    """The per-tensor Adam loop the fused step replaced; ``ref`` holds t, m, v."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    ref["t"] += 1
    t = ref["t"]
    for name, g in grads.items():
        g = np.asarray(g, dtype=np.float64)
        m = ref["m"].get(name, np.zeros_like(g))
        v = ref["v"].get(name, np.zeros_like(g))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        ref["m"][name] = m
        ref["v"][name] = v
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        store.set(name, store.get(name) - lr * m_hat / (np.sqrt(v_hat) + eps))


def twin_stores(shapes, frozen=()):
    rng = np.random.default_rng(5)
    stores = (ParamStore(), ParamStore())
    for name, shape in shapes.items():
        value = rng.normal(size=shape)
        for store in stores:
            store.add(name, value, "gate" if name in frozen else "backbone")
    return stores


def assert_matches_reference(store, state, ref_store, ref):
    assert state.t == ref["t"]
    for name in ref_store.names():
        np.testing.assert_array_equal(store.get(name), ref_store.get(name))
    assert set(state.m) == set(ref["m"])
    for name in ref["m"]:
        np.testing.assert_array_equal(state.m[name], ref["m"][name])
        np.testing.assert_array_equal(state.v[name], ref["v"][name])


def test_fused_adam_matches_per_tensor_loop_bitwise():
    shapes = {"emb": (7, 3), "w": (4, 5), "b": (4,), "s": (), "frozen": (2, 2)}
    store, ref_store = twin_stores(shapes, frozen=("frozen",))
    state, ref = AdamState(store, ["emb", "w", "b", "s"]), {"t": 0, "m": {}, "v": {}}
    rng = np.random.default_rng(6)
    for step in range(7):
        grads = {n: rng.normal(scale=10.0 ** (step % 3 - 1), size=s)
                 for n, s in shapes.items() if n != "frozen"}
        adam_step(store, grads, state, 3e-3)
        reference_adam_step(ref_store, grads, ref, 3e-3)
        assert_matches_reference(store, state, ref_store, ref)
    assert "frozen" not in state.m
    assert state.m["s"].shape == ()


def test_adam_step_naming_other_tensors_is_refused_and_moves_nothing():
    shapes = {"a": (3,), "b": (2, 2), "c": (4,)}
    store, ref_store = twin_stores(shapes)
    state, ref = AdamState(store, ["a", "b"]), {"t": 0, "m": {}, "v": {}}
    rng = np.random.default_rng(7)
    for _ in range(2):
        grads = {n: rng.normal(size=shapes[n]) for n in ("a", "b")}
        adam_step(store, grads, state, 1e-2)
        reference_adam_step(ref_store, grads, ref, 1e-2)
    assert state.names == ("a", "b")
    # A dropped and an added name.
    for names in (("a",), ("a", "b", "c")):
        grads = {n: rng.normal(size=shapes[n]) for n in names}
        with pytest.raises(ValueError, match=re.escape(
                f"steps ['a', 'b'], but the gradients name {list(names)}")):
            adam_step(store, grads, state, 1e-2)
        assert_matches_reference(store, state, ref_store, ref)
    assert state.names == ("a", "b") and state.t == 2


def test_adam_step_takes_the_gradients_in_any_order():
    shapes = {"a": (3,), "b": (2, 2), "c": ()}
    store, other = twin_stores(shapes)
    state, other_state = AdamState(store, shapes), AdamState(other, shapes)
    rng = np.random.default_rng(8)
    for _ in range(3):
        grads = {n: rng.normal(size=s) for n, s in shapes.items()}
        adam_step(store, grads, state, 1e-2)
        adam_step(other, dict(reversed(grads.items())), other_state, 1e-2)
    for n in shapes:
        assert store.get(n).tobytes() == other.get(n).tobytes()
        assert state.v[n].tobytes() == other_state.v[n].tobytes()


def test_adam_failed_step_moves_nothing():
    store = ParamStore()
    store.add("a", np.array([1.0, 2.0]), "backbone")
    store.add("b", np.array([[3.0]]), "backbone")
    store.add("c", np.array(4.0), "backbone")
    state = AdamState(store, ["a", "b"])
    adam_step(store, {"a": np.array([0.5, -0.5]), "b": np.array([[1.0]])}, state, 0.1)
    params = {n: store.get(n).copy() for n in store.names()}
    moments = {n: (state.m[n].copy(), state.v[n].copy()) for n in state.m}
    bad_steps = [
        {"a": np.array([0.1, 0.2]), "b": np.array([[np.nan]])},
        {"a": np.array([0.1, np.inf]), "b": np.array([[-np.inf]])},
    ]
    for grads, named in zip(bad_steps, ("'b'", "'a'")):
        with pytest.raises(NumericError, match=named):
            adam_step(store, grads, state, 0.1)
        assert state.t == 1
        assert set(state.m) == set(state.v) == {"a", "b"}
        for n, value in params.items():
            np.testing.assert_array_equal(store.get(n), value)
        for n, (m, v) in moments.items():
            np.testing.assert_array_equal(state.m[n], m)
            np.testing.assert_array_equal(state.v[n], v)


def test_phase1_builds_the_adam_layout_once(monkeypatch):
    ds = small_synth()
    train, val, _ = split_dataset(ds, seed=1)
    model = build_model(ds.schema, "mlp", "plain", seed=1, hidden=(8, 6))
    bases = []
    step = training.adam_step

    def recording_step(store, grads, state, *args, **kwargs):
        step(store, grads, state, *args, **kwargs)
        bases.extend(state.m[n].base for n in grads)
        bases.extend(state.v[n].base for n in grads)

    monkeypatch.setattr(training, "adam_step", recording_step)
    run_phase1(model, train, val, FAST)
    assert len(bases) > 100
    assert isinstance(bases[0], np.ndarray)
    assert all(b is bases[0] for b in bases)


def test_non_finite_gradient_in_training_names_tensor_and_phase(monkeypatch):
    ds = small_synth()
    train, val, _ = split_dataset(ds, seed=1)
    model = build_model(ds.schema, "mlp", "plain", seed=1, hidden=(8, 6))
    backward = Tape.backward

    def poisoned(self, *args, **kwargs):
        grads = backward(self, *args, **kwargs)
        grads["head.b"][...] = np.nan
        return grads

    monkeypatch.setattr(Tape, "backward", poisoned)
    before = model.store.group_bytes("backbone")
    with pytest.raises(NumericError, match=r"'head.b' in phase 1") as err:
        run_phase1(model, train, val, FAST)
    assert err.value.phase == 1
    assert model.store.group_bytes("backbone") == before


def _assert_no_training_arena(model, views):
    for view in views:
        tape, _, _ = model.tape(view)
        assert not tape._arena and not tape._bound and tape._train is None, view


def test_a_unit_aborted_by_a_numeric_error_releases_its_tape(monkeypatch):
    ds = small_synth()
    train, val, _ = split_dataset(ds, seed=1)
    model = build_model(ds.schema, "mlp", "plain", seed=1, hidden=(8, 6))
    backward = Tape.backward

    def poisoned(self, *args, **kwargs):
        grads = backward(self, *args, **kwargs)
        grads["head.b"][...] = np.nan
        return grads

    monkeypatch.setattr(Tape, "backward", poisoned)
    with pytest.raises(NumericError):
        run_phase1(model, train, val, FAST)
    _assert_no_training_arena(model, ["backbone"])


def test_no_tape_keeps_a_training_arena_after_the_pipeline():
    res = train_pipeline(FAST, small_synth(), "mlp", "moe",
                         AdapterConfig(experts_per_domain=2), hidden=(8, 6))
    # Every view trained one unit: the backbone, four experts and the gates.
    assert sorted(res.model._tapes) == sorted(res.model.views())
    assert len(res.model.views()) == 6
    _assert_no_training_arena(res.model, res.model.views())


def test_stop_early_patience_semantics():
    assert not _stop_early([0.5, 0.6], patience=2)
    assert not _stop_early([0.5, 0.6, 0.55], patience=2)
    assert _stop_early([0.5, 0.6, 0.55, 0.58], patience=2)
    assert not _stop_early([0.5, 0.6, 0.55, 0.61], patience=2)


def test_phase1_learns_separable_set():
    # Labels depend only on the user id parity: linearly separable given
    # memorized embeddings.
    rng = np.random.default_rng(0)
    n = 4000
    schema = FeatureSchema((("user_id", 40), ("item_id", 30)), embedding_dim=4,
                           n_domains=2)
    users = rng.integers(0, 40, n)
    items = rng.integers(0, 30, n)
    labels = (users % 2).astype(np.int64)
    domains = rng.integers(0, 2, n)
    ds = Dataset(schema, np.column_stack([users, items]), labels, domains)
    train, val, _ = split_dataset(ds, seed=0)
    model = build_model(schema, "mlp", "plain", seed=0, hidden=(16, 8))
    cfg = TrainConfig(lr=5e-3, batch_size=128, epochs=(6, 1, 1), seed=0)
    rep = run_phase1(model, train, val, cfg)
    assert rep.phase == 1
    assert rep.train_loss[-1] < 0.3
    assert rep.val_wauc[-1] > 0.95


def test_phase1_freezes_adapters_and_gates():
    ds = small_synth()
    train, val, _ = split_dataset(ds, seed=1)
    model = build_model(ds.schema, "mlp", "moe", AdapterConfig(), seed=1, hidden=(8, 6))
    non_backbone_before = model.store.group_bytes(lambda g: g != "backbone")
    backbone_before = model.store.group_bytes("backbone")
    rep = run_phase1(model, train, val, FAST)
    assert model.store.group_bytes(lambda g: g != "backbone") == non_backbone_before
    assert model.store.group_bytes("backbone") != backbone_before
    assert rep.frozen_checksum_before == rep.frozen_checksum_after


def test_phase2_trains_experts_only_and_isolates_domains():
    ds = small_synth(seed=2)
    train, val, _ = split_dataset(ds, seed=2)
    model = build_model(ds.schema, "mlp", "moe", AdapterConfig(), seed=2, hidden=(8, 6))
    run_phase1(model, train, val, FAST)
    backbone = model.store.group_bytes("backbone")
    gates = model.store.group_bytes("gate")
    ids = ds.ids[:50]
    from moectr.training import _train_one_expert

    other_before = model.predict(ids, 1, view="expert:1:0")
    _train_one_expert(model, 0, 0, train, val, FAST)
    # Training expert 0 must not move predictions that only use expert 1.
    np.testing.assert_array_equal(other_before,
                                  model.predict(ids, 1, view="expert:1:0"))
    rep = run_phase2(model, train, val, FAST)
    assert model.store.group_bytes("backbone") == backbone
    assert model.store.group_bytes("gate") == gates
    assert len(rep.children) == 2
    assert not np.array_equal(other_before,
                              model.predict(ids, 1, view="expert:1:0"))
    # B matrices left zero-init nowhere: both experts actually trained.
    for d in range(2):
        assert np.abs(model.store.get(f"tower.0.e{d}.0.B")).max() > 0


def test_phase2_children_carry_real_freeze_checksums():
    ds = small_synth(seed=3)
    train, val, _ = split_dataset(ds, seed=3)
    model = build_model(ds.schema, "mlp", "moe",
                        AdapterConfig(experts_per_domain=2), seed=3, hidden=(8, 6))
    run_phase1(model, train, val, FAST)
    rep = run_phase2(model, train, val, FAST)
    assert len(rep.children) == 4
    for child in rep.children:
        assert re.fullmatch(r"[0-9a-f]{64}", child.frozen_checksum_before)
        assert child.frozen_checksum_before == child.frozen_checksum_after
    # Each child hashes the other experts too, so the hashes follow training.
    assert len({c.frozen_checksum_before for c in rep.children}) == 4


def test_phase2_child_aborts_when_another_expert_moves(monkeypatch):
    ds = small_synth(seed=3)
    train, val, _ = split_dataset(ds, seed=3)
    model = build_model(ds.schema, "mlp", "mlora", AdapterConfig(), seed=3, hidden=(8, 6))
    run_phase1(model, train, val, FAST)
    step = training.adam_step

    def leaky_step(store, grads, *args, **kwargs):
        step(store, grads, *args, **kwargs)
        store.set("head.e1.0.B", store.get("head.e1.0.B") + 1.0)

    monkeypatch.setattr(training, "adam_step", leaky_step)
    with pytest.raises(NumericError, match=r"expert\(0,0\) modified other"):
        run_phase2(model, train, val, FAST)


def test_phase2_aborts_when_a_frozen_tensor_moves_between_experts(monkeypatch):
    ds = small_synth(seed=3)
    train, val, _ = split_dataset(ds, seed=3)
    model = build_model(ds.schema, "mlp", "mlora", AdapterConfig(), seed=3, hidden=(8, 6))
    train_one = training._train_one_expert

    def leaky_expert(model, *args):
        rep = train_one(model, *args)
        model.store.set("tower.0.W", model.store.get("tower.0.W") + 1.0)
        return rep

    # Each expert's own hashes miss a move outside its training; the phase's do not.
    monkeypatch.setattr(training, "_train_one_expert", leaky_expert)
    with pytest.raises(NumericError, match="^phase 2 modified frozen parameters$") as err:
        run_phase2(model, train, val, FAST)
    assert err.value.phase == 2


def test_phase3_aborts_when_a_frozen_tensor_moves(monkeypatch):
    ds = small_synth(seed=3)
    train, val, _ = split_dataset(ds, seed=3)
    model = build_model(ds.schema, "mlp", "moe", AdapterConfig(), seed=3, hidden=(8, 6))
    run_phase1(model, train, val, FAST)
    run_phase2(model, train, val, FAST)
    step = training.adam_step

    def leaky_step(store, grads, *args, **kwargs):
        step(store, grads, *args, **kwargs)
        store.set("tower.0.W", store.get("tower.0.W") + 1.0)

    monkeypatch.setattr(training, "adam_step", leaky_step)
    with pytest.raises(NumericError, match="phase 3 modified frozen parameters") as err:
        run_phase3(model, train, val, FAST)
    assert err.value.phase == 3


def test_phase2_replicas_differ_only_by_init_stream():
    ds = small_synth(seed=3)
    train, val, _ = split_dataset(ds, seed=3)
    model = build_model(ds.schema, "mlp", "moe",
                        AdapterConfig(experts_per_domain=2), seed=3, hidden=(8, 6))
    run_phase1(model, train, val, FAST)
    run_phase2(model, train, val, FAST)
    a0 = model.store.get("tower.0.e0.0.A")
    a1 = model.store.get("tower.0.e0.1.A")
    assert not np.array_equal(a0, a1)


def test_phase2_runs_on_any_mode_and_warns_on_empty_domain():
    ds = small_synth(seed=4)
    train, val, _ = split_dataset(ds, seed=4)
    # A plain model has experts too: phase 2 trains them, and the backbone
    # view that predicts for plain does not read them.
    plain = build_model(ds.schema, "mlp", "plain", seed=4, hidden=(8, 6))
    others = plain.store.group_bytes(lambda g: not g.startswith("expert("))
    experts = plain.store.group_bytes("expert(")
    before = plain.predict(val.ids, 0)
    run_phase2(plain, train, val, FAST)
    assert plain.store.group_bytes(lambda g: not g.startswith("expert(")) == others
    assert plain.store.group_bytes("expert(") != experts
    np.testing.assert_array_equal(plain.predict(val.ids, 0), before)
    # Rebuild the schema with a third, empty domain.
    schema3 = FeatureSchema(ds.schema.fields, ds.schema.embedding_dim, 3)
    ds3 = Dataset(schema3, ds.ids, ds.labels, ds.domains)
    train3, val3, _ = split_dataset(ds3, seed=4)
    model = build_model(schema3, "mlp", "mlora", AdapterConfig(), seed=4, hidden=(8, 6))
    run_phase1(model, train3, val3, FAST)
    rep = run_phase2(model, train3, val3, FAST)
    assert any("no training rows" in w for w in rep.warnings)
    np.testing.assert_array_equal(model.store.get("tower.0.e2.0.B"),
                                  np.zeros_like(model.store.get("tower.0.e2.0.B")))


def _with_domain(ds, keep_per_label):
    """``ds`` plus a third domain made of ``keep_per_label`` rows per label,
    relabelled from domain 0's rows (0 gives an empty domain)."""
    rows = np.concatenate([np.flatnonzero((ds.domains == 0) & (ds.labels == lab))[:keep_per_label]
                           for lab in (0, 1)])
    schema3 = FeatureSchema(ds.schema.fields, ds.schema.embedding_dim, 3)
    return Dataset(schema3, np.concatenate([ds.ids, ds.ids[rows]]),
                   np.concatenate([ds.labels, ds.labels[rows]]),
                   np.concatenate([ds.domains, np.full(rows.size, 2)]))


def test_pipeline_domain_without_validation_rows_trains_every_epoch():
    # Two rows per (domain, label) cell all land in the training split.
    ds = _with_domain(small_synth(seed=10), keep_per_label=2)
    cfg = replace(FAST, epochs=(2, 6, 2), patience=1)
    res = train_pipeline(cfg, ds, "mlp", "moe", AdapterConfig(), hidden=(8, 6))
    phase2 = res.phases[1]
    assert "domain 2: no validation rows, no early stopping" in phase2.warnings
    child = next(c for c in phase2.children if c.unit == "expert(2,0)")
    assert child.val_wauc == [] and not child.stopped_early
    assert child.epochs_run == cfg.epochs[1] and np.isfinite(child.train_loss).all()
    assert np.abs(res.model.store.get("tower.0.e2.0.B")).max() > 0
    assert res.metrics.per_domain[2].n_rows == 0 and res.metrics.per_domain[2].weight == 0.0
    assert "domain 2: no rows in evaluation split" in res.metrics.warnings
    assert np.isfinite(res.metrics.wauc) and 0.0 < res.metrics.wauc < 1.0


def test_expert_with_single_class_validation_split_warns_and_is_never_scored(monkeypatch):
    ds = small_synth(seed=12)
    positive_of_1 = (ds.domains == 1) & (ds.labels == 1)
    # Domain 1 keeps two positives, and the split puts both in training.
    ds = ds.subset(np.flatnonzero(~positive_of_1 | (np.cumsum(positive_of_1) <= 2)))
    cfg = replace(FAST, patience=1)
    train, val, _ = split_dataset(ds, seed=cfg.seed)
    val_labels = val.labels[val.rows_of_domain(1)]
    assert val_labels.size and not val_labels.any()
    scored_views = []
    predict = training.CtrModel.predict

    def spy(self, ids, domain, view=None):
        scored_views.append(view)
        return predict(self, ids, domain, view=view)

    monkeypatch.setattr(training.CtrModel, "predict", spy)
    model = build_model(ds.schema, "mlp", "mlora", AdapterConfig(), seed=0, hidden=(8, 6))
    run_phase1(model, train, val, cfg)
    rep = run_phase2(model, train, val, cfg)
    child = next(c for c in rep.children if c.unit == "expert(1,0)")
    warning = "domain 1: single-class validation split, no early stopping"
    assert child.warnings == [warning] and warning in rep.warnings
    assert child.val_wauc == [] and not child.stopped_early
    assert child.epochs_run == cfg.epochs[1]
    assert "expert:1:0" not in scored_views and "expert:0:0" in scored_views


def test_pipeline_phase3_skips_a_domain_with_no_rows():
    ds = _with_domain(small_synth(seed=11), keep_per_label=0)
    train, _, _ = split_dataset(ds, seed=FAST.seed)
    batches = domain_batches(train, FAST.batch_size, seed=FAST.seed * 1000 + 3)
    assert {d for d, _ in batches} == {0, 1} and all(rows.size for _, rows in batches)
    res = train_pipeline(FAST, ds, "mlp", "moe", AdapterConfig(), hidden=(8, 6))
    assert "domain 2: no training rows, expert(2,0) left at initialization" in res.phases[1].warnings
    assert res.phases[2].epochs_run == FAST.epochs[2]
    assert np.isfinite(res.phases[2].train_loss).all()
    # Phase 3 stepped no batch of domain 2, so its gate rows never moved,
    # while the other domains' did.
    for layer in ("tower.0", "tower.1", "head"):
        logits = res.model.store.get(f"{layer}.gate.logits")
        np.testing.assert_array_equal(logits[2], np.zeros(3))
        assert np.abs(logits[:2]).max() > 0
    assert np.isfinite(res.metrics.wauc) and 0.0 < res.metrics.wauc < 1.0


def test_phase3_moves_gates_only_in_any_mode():
    ds = small_synth(seed=5)
    train, val, _ = split_dataset(ds, seed=5)
    model = build_model(ds.schema, "mlp", "moe", AdapterConfig(), seed=5, hidden=(8, 6))
    run_phase1(model, train, val, FAST)
    run_phase2(model, train, val, FAST)
    frozen = model.store.group_bytes(lambda g: g != "gate")
    gates_before = model.store.group_bytes("gate")
    rep = run_phase3(model, train, val, FAST)
    assert model.store.group_bytes(lambda g: g != "gate") == frozen
    assert model.store.group_bytes("gate") != gates_before
    assert rep.phase == 3 and rep.epochs_run >= 1
    # mlora has gate tables too; its domain-routed predictions do not read them.
    mlora = build_model(ds.schema, "mlp", "mlora", AdapterConfig(), seed=5, hidden=(8, 6))
    run_phase1(mlora, train, val, FAST)
    run_phase2(mlora, train, val, FAST)
    frozen = mlora.store.group_bytes(lambda g: g != "gate")
    before = mlora.predict(val.ids, 1)
    run_phase3(mlora, train, val, FAST)
    assert mlora.store.group_bytes(lambda g: g != "gate") == frozen
    np.testing.assert_array_equal(mlora.predict(val.ids, 1), before)


def test_gate_starts_uniform_then_sharpens_toward_own_expert():
    ds = small_synth(seed=6, divergence=0.9)
    train, val, _ = split_dataset(ds, seed=6)
    model = build_model(ds.schema, "mlp", "moe", AdapterConfig(), seed=6, hidden=(8, 6))
    np.testing.assert_array_equal(model.store.get("tower.0.gate.logits"),
                                  np.zeros((2, 2)))
    run_phase1(model, train, val, FAST)
    run_phase2(model, train, val, FAST)
    run_phase3(model, train, val, FAST)
    assert np.abs(model.store.get("tower.0.gate.logits")).max() > 0


@pytest.mark.parametrize("mode,n_phases", [("plain", 1), ("mlora", 2), ("moe", 3)])
def test_pipeline_phase_counts_and_checkpoints(tmp_path, mode, n_phases):
    ds = small_synth(seed=7)
    out = tmp_path / mode
    out.mkdir()
    res = train_pipeline(FAST, ds, "mlp", mode, AdapterConfig(), hidden=(8, 6),
                         out_dir=str(out))
    assert [p.phase for p in res.phases] == list(range(1, n_phases + 1))
    for i in range(1, n_phases + 1):
        assert (out / f"phase{i}.npz").exists()
    assert 0.0 <= res.metrics.wauc <= 1.0
    assert res.metrics.context["mode"] == mode


VIEWS = ["backbone", "expert:0:0", "expert:1:0", "mixture"]


@pytest.mark.parametrize("mode,adapter,views,phases", [
    ("plain", AdapterConfig(), VIEWS, [1]),
    ("mlora", AdapterConfig(), VIEWS, [1, 2]),
    ("moe", AdapterConfig(), VIEWS, [1, 2, 3]),
    ("moe", AdapterConfig(experts_per_domain=2),
     ["backbone", "expert:0:0", "expert:0:1", "expert:1:0", "expert:1:1", "mixture"],
     [1, 2, 3]),
])
def test_mode_decides_views_predict_view_and_phases(mode, adapter, views, phases):
    res = train_pipeline(FAST, small_synth(seed=7), "mlp", mode, adapter, hidden=(8, 6))
    model = res.model
    assert model.mode == mode
    assert model.views() == views
    expected = {"plain": "backbone", "mlora": "expert:{d}:0", "moe": "mixture"}[mode]
    assert [model.predict_view(d) for d in range(2)] == [expected.format(d=d)
                                                         for d in range(2)]
    assert [p.phase for p in res.phases] == phases


def test_pipeline_rerun_bit_identical_records():
    ds = small_synth(seed=8)
    a = train_pipeline(FAST, ds, "wdl", "moe", AdapterConfig(), hidden=(8, 6))
    b = train_pipeline(FAST, ds, "wdl", "moe", AdapterConfig(), hidden=(8, 6))
    ra = json.dumps([r for r in a.metrics.to_records()], sort_keys=True)
    rb = json.dumps([r for r in b.metrics.to_records()], sort_keys=True)
    assert ra == rb
    for na, nb in zip(a.model.store.names(), b.model.store.names()):
        np.testing.assert_array_equal(a.model.store.get(na), b.model.store.get(nb))


def test_mlora_predict_runs_the_domain_expert_view():
    ds = small_synth(seed=9, divergence=0.8)
    res = train_pipeline(FAST, ds, "mlp", "mlora", AdapterConfig(), hidden=(8, 6))
    for d in range(2):
        rows = ds.ids[ds.domains == d]
        np.testing.assert_array_equal(res.model.predict(rows, d),
                                      res.model.predict(rows, d, view=f"expert:{d}:0"))
    # No phase of mlora trains the gates: they stay at their zero init.
    for name, group in res.model.store.param_groups():
        if group == "gate":
            assert not res.model.store.get(name).any(), name


def test_the_store_owns_its_arrays_and_adam_moves_them_in_place():
    given = np.array([1.0, 2.0])
    store = ParamStore()
    store.add("w", given, "backbone")
    given[0] = 9.0
    np.testing.assert_array_equal(store.get("w"), [1.0, 2.0])
    later = np.array([3.0, 4.0])
    store.set("w", later)
    later[1] = 9.0
    np.testing.assert_array_equal(store.get("w"), [3.0, 4.0])
    held = store.get("w")
    adam_step(store, {"w": np.array([1.0, -1.0])}, AdamState(store, ["w"]), 0.5)
    assert store.get("w") is held
    np.testing.assert_allclose(held, [2.5, 4.5], rtol=0, atol=1e-6)
    np.testing.assert_array_equal(given, [9.0, 2.0])
    np.testing.assert_array_equal(later, [3.0, 9.0])


def test_each_unit_steps_exactly_its_own_tensors(monkeypatch):
    steps = []

    def recording(store, grads, state, lr):
        steps.append((state.names, list(grads)))
        adam_step(store, grads, state, lr)

    monkeypatch.setattr(training, "adam_step", recording)
    res = train_pipeline(replace(FAST, epochs=(1, 1, 1)), small_synth(), "wdl", "moe",
                         AdapterConfig(experts_per_domain=2))
    groups = res.model.store.param_groups()
    gates = {n for n, g in groups if g == "gate"}
    layers = [n.removesuffix(".gate.logits") for n in gates]
    units = [{n for n, g in groups if g == "backbone"}]
    units += [{f"{layer}.e{d}.{k}.{m}" for layer in layers for m in "AB"}
              for d, k in res.model.expert_keys()]
    units += [gates]
    seen = [set(names) for i, (names, _) in enumerate(steps)
            if i == 0 or names != steps[i - 1][0]]
    assert seen == units and len(units) == 6
    assert all(set(names) == set(given) for names, given in steps)
    # The tape hands out an expert's B before its A; the state keeps store order.
    assert any(list(names) != given for names, given in steps)
