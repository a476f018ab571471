import json
import re

import numpy as np
import pytest

from moectr import training
from moectr.autodiff import AutodiffError, ParamStore
from moectr.data import Dataset, SyntheticSpec, generate_synthetic, split_dataset
from moectr.models import AdapterConfig, FeatureSchema, build_model
from moectr.training import (
    AdamState,
    NumericError,
    TrainConfig,
    _stop_early,
    adam_step,
    bce_loss,
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


def test_bce_loss_values_and_validation():
    assert abs(bce_loss([0.5], [1.0]) - np.log(2.0)) < 1e-15
    assert np.isfinite(bce_loss([0.0, 1.0], [1.0, 0.0]))  # clamp keeps it finite
    with pytest.raises(ValueError, match="labels"):
        bce_loss([0.5], [0.7])
    with pytest.raises(ValueError, match="finite"):
        bce_loss([np.nan], [1.0])


def test_adam_single_step_matches_hand_recurrence():
    store = ParamStore()
    store.add("w", np.array([1.0]), "backbone")
    state = AdamState()
    g = np.array([0.3])
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    adam_step(store, {"w": g}, state, lr, b1, b2, eps)
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    want = 1.0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    np.testing.assert_allclose(store.get("w"), want, rtol=0, atol=1e-12)
    # After bias correction the first step is nearly lr * sign(g).
    assert abs((1.0 - store.get("w")[0]) - lr * np.sign(g[0])) < 1e-6


def test_adam_multi_step_matches_reference_loop():
    store = ParamStore()
    store.add("w", np.array([0.5, -1.0]), "backbone")
    state = AdamState()
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
    store.set_trainable_only("backbone")
    state = AdamState()
    adam_step(store, {"a": np.array([0.0]), "b": np.array([9.9])}, state, 0.1)
    assert state.t == 1
    np.testing.assert_array_equal(store.get("a"), [2.0])  # zero grad, fresh state
    np.testing.assert_array_equal(store.get("b"), [3.0])  # frozen stays put


def test_adam_rejects_non_finite_gradient():
    store = ParamStore()
    store.add("w", np.array([1.0]), "backbone")
    with pytest.raises(NumericError, match="'w'"):
        adam_step(store, {"w": np.array([np.inf])}, AdamState(), 0.1)


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

    model.store.set_trainable_only("expert(")
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


def test_phase2_requires_adapted_model_and_warns_on_empty_domain():
    ds = small_synth(seed=4)
    train, val, _ = split_dataset(ds, seed=4)
    plain = build_model(ds.schema, "mlp", "plain", seed=4, hidden=(8, 6))
    with pytest.raises(ValueError, match="adapted"):
        run_phase2(plain, train, val, FAST)
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


def test_phase3_moves_gates_only_and_rejects_other_modes():
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
    mlora = build_model(ds.schema, "mlp", "mlora", AdapterConfig(), seed=5, hidden=(8, 6))
    with pytest.raises(ValueError, match="moe"):
        run_phase3(mlora, train, val, FAST)


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


def test_pipeline_rerun_bit_identical_records():
    ds = small_synth(seed=8)
    a = train_pipeline(FAST, ds, "wdl", "moe", AdapterConfig(), hidden=(8, 6))
    b = train_pipeline(FAST, ds, "wdl", "moe", AdapterConfig(), hidden=(8, 6))
    ra = json.dumps([r for r in a.metrics.to_records()], sort_keys=True)
    rb = json.dumps([r for r in b.metrics.to_records()], sort_keys=True)
    assert ra == rb
    for na, nb in zip(a.model.store.names(), b.model.store.names()):
        np.testing.assert_array_equal(a.model.store.get(na), b.model.store.get(nb))


def test_moe_one_hot_pipeline_reproduces_mlora_predictions():
    ds = small_synth(seed=9, divergence=0.8)
    res_m = train_pipeline(FAST, ds, "mlp", "mlora", AdapterConfig(), hidden=(8, 6))
    res_f = train_pipeline(FAST, ds, "mlp", "moe",
                           AdapterConfig(gate_force_one_hot=True), hidden=(8, 6))
    _, _, test = split_dataset(ds, seed=FAST.seed)
    for d in range(2):
        rows = test.rows_of_domain(d)
        np.testing.assert_array_equal(
            res_m.model.predict(test.ids[rows], d),
            res_f.model.predict(test.ids[rows], d))


@pytest.mark.parametrize("adapter", [AdapterConfig(), AdapterConfig(gate_force_one_hot=True)])
def test_hard_routed_predict_runs_the_domain_expert_view(adapter):
    ds = small_synth(seed=9, divergence=0.8)
    mode = "moe" if adapter.gate_force_one_hot else "mlora"
    res = train_pipeline(FAST, ds, "mlp", mode, adapter, hidden=(8, 6))
    for d in range(2):
        rows = ds.ids[ds.domains == d]
        np.testing.assert_array_equal(res.model.predict(rows, d),
                                      res.model.predict(rows, d, view=f"expert:{d}:0"))
    with pytest.raises(AutodiffError, match="mixture"):
        res.model.tape("mixture")
