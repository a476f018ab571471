import json
import re
import tracemalloc

import numpy as np
import pytest

from helpers import fm_pairwise, model_loss_fn, sample_inputs, wide_logit
from moectr.autodiff import AutodiffError, grad_check
from moectr.models import (
    AdapterConfig,
    CtrModel,
    FeatureSchema,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from moectr.training import AdamState, adam_step

SCHEMA = FeatureSchema(fields=(("user_id", 13), ("item_id", 11)),
                       embedding_dim=4, n_domains=2)


def tiny(arch="mlp", mode="plain", seed=0, **cfg):
    return build_model(SCHEMA, arch, mode, AdapterConfig(rank=2, alpha=2.0, **cfg),
                       seed=seed, hidden=(6, 5))


def rand_ids(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, 13, n), rng.integers(0, 11, n)])


def test_probabilities_in_open_interval():
    m = tiny()
    p = m.predict(rand_ids(64), 0)
    assert p.shape == (64,)
    assert (p > 0.0).all() and (p < 1.0).all()


def test_zero_head_gives_half():
    m = tiny()
    m.store.set("head.W", np.zeros((1, 5)))
    m.store.set("head.b", np.zeros(1))
    np.testing.assert_allclose(m.predict(rand_ids(16), 0), 0.5, atol=1e-15)


def test_probability_monotone_in_head_bias():
    m = tiny()
    ids = rand_ids(32)
    p0 = m.predict(ids, 0)
    m.store.set("head.b", np.array([1.5]))
    p1 = m.predict(ids, 0)
    assert (p1 > p0).all()


def test_fm_pairwise_example():
    assert fm_pairwise([[1, 0], [0, 1], [1, 1]]) == 2.0


def test_fm_pairwise_matches_naive_sum():
    rng = np.random.default_rng(4)
    vs = [rng.normal(size=6) for _ in range(5)]
    naive = sum(float(vs[i] @ vs[j]) for i in range(5) for j in range(i + 1, 5))
    assert abs(fm_pairwise(vs) - naive) < 1e-9


def test_wide_logit_linear_part():
    tables = [np.arange(4.0).reshape(4, 1), np.array([[10.0], [20.0]])]
    ids = np.array([[0, 1], [3, 0]])
    np.testing.assert_allclose(wide_logit(ids, tables, 0.5), [20.5, 13.5])


def test_deepfm_tape_matches_reference_terms():
    m = tiny("deepfm")
    ids = rand_ids(20, seed=2)
    p = m.predict(ids, 0)
    # Reassemble the logit by hand from the stored parameters.
    embs = [m.store.get(f"emb.{f}")[ids[:, i]] for i, (f, _) in enumerate(SCHEMA.fields)]
    x = np.concatenate(embs, axis=1)
    h = x
    for i in range(2):
        W, b = m.store.get(f"tower.{i}.W"), m.store.get(f"tower.{i}.b")
        h = np.maximum(h @ W.T + b, 0.0)
    deep = (h @ m.store.get("head.W").T + m.store.get("head.b")).reshape(-1)
    wide = wide_logit(ids, [m.store.get(f"wide.{f}") for f, _ in SCHEMA.fields],
                      float(m.store.get("wide.bias")[0]))
    fm = np.array([fm_pairwise([e[r] for e in embs]) for r in range(20)])
    expect = 1.0 / (1.0 + np.exp(-(deep + wide + fm)))
    np.testing.assert_allclose(p, expect, atol=1e-12)


def test_wdl_adds_wide_term_to_mlp_logit():
    mlp = tiny("mlp", seed=5)
    wdl = tiny("wdl", seed=5)
    ids = rand_ids(10, seed=1)
    # Wide starts at zero, so the two coincide; a biased wide table shifts it.
    np.testing.assert_allclose(wdl.predict(ids, 0), mlp.predict(ids, 0),
                               atol=1e-15)
    wdl.store.set("wide.bias", np.array([2.0]))
    assert (wdl.predict(ids, 0) > mlp.predict(ids, 0)).all()


@pytest.mark.parametrize("mode", ["mlora", "moe"])
@pytest.mark.parametrize("arch", ["mlp", "wdl", "deepfm"])
def test_zero_init_adapted_model_matches_plain_bitwise(arch, mode):
    plain = tiny(arch, "plain", seed=9)
    adapted = tiny(arch, mode, seed=9)
    ids = rand_ids(50, seed=3)
    for d in range(2):
        np.testing.assert_array_equal(
            adapted.predict(ids, d), plain.predict(ids, d))


def test_moe_param_group_counts():
    m = build_model(FeatureSchema((("u", 5), ("i", 5)), 4, n_domains=2),
                    "mlp", "moe", AdapterConfig(experts_per_domain=2), hidden=(6, 5))
    groups = [g for _, g, _ in m.store.param_groups()]
    expert_tags = {g for g in groups if g.startswith("expert(")}
    gate_params = [n for n, g, _ in m.store.param_groups() if g == "gate"]
    # tower depth 2 plus head: 3 adapted layers, 2 domains x 2 replicas each.
    assert len(expert_tags) == 12
    assert len(gate_params) == 3


def test_mixture_tape_size_does_not_grow_with_experts():
    def op_nodes(experts_per_domain):
        tape, _, _ = tiny("mlp", "moe", experts_per_domain=experts_per_domain).tape("mixture")
        return sum(node.op != "param" for node in tape.nodes)

    assert op_nodes(1) == op_nodes(2) == 44


def _batch_row_matmuls(tape) -> list[int]:
    """Matmul nodes with an operand that depends on the batch rows.

    Every input but the domain index carries one row per example.
    """
    rows = []
    for node in tape.nodes:
        if node.op == "input":
            rows.append(node.meta["name"] != "domain")
        else:
            rows.append(any(rows[a] for a in node.args))
    return [nid for nid, node in enumerate(tape.nodes)
            if node.op == "matmul" and any(rows[a] for a in node.args)]


@pytest.mark.parametrize("view,cfg", [
    ("expert:1:0", {}),
    ("mixture", {}),
    ("mixture", {"experts_per_domain": 2}),
])
def test_each_merged_layer_runs_one_batch_row_matmul(view, cfg):
    tape, _, _ = tiny("mlp", "moe", **cfg).tape(view)
    # tower.0, tower.1 and head: one x @ W_eff.T each.
    assert len(_batch_row_matmuls(tape)) == 3


@pytest.mark.parametrize("bad", [True, 2.5])
def test_schema_names_an_embedding_dim_that_is_not_a_positive_integer(bad):
    with pytest.raises(ValueError, match=re.escape(
            f"embedding_dim must be a positive integer, got {bad!r}")):
        FeatureSchema(SCHEMA.fields, embedding_dim=bad)


@pytest.mark.parametrize("bad", [2.5, 0, True])
def test_build_model_names_a_tower_width_that_is_not_a_positive_integer(bad):
    with pytest.raises(ValueError, match=re.escape(
            f"hidden width must be a positive integer, got {bad!r}")):
        build_model(SCHEMA, "mlp", "plain", hidden=(bad,))


@pytest.mark.parametrize("bad", [2.5, -1, True])
def test_build_model_names_a_seed_that_is_not_a_non_negative_integer(bad):
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be a non-negative integer, got {bad!r}")):
        build_model(SCHEMA, "mlp", "plain", seed=bad)


def test_mlora_refuses_more_than_one_expert_per_domain():
    with pytest.raises(ValueError, match=re.escape(
            "experts_per_domain: mlora mode keeps exactly one adapter per domain, got 2")):
        build_model(SCHEMA, "mlp", "mlora", AdapterConfig(experts_per_domain=2))


def test_build_model_deterministic_by_seed():
    a = tiny("deepfm", "moe", seed=4)
    b = tiny("deepfm", "moe", seed=4)
    c = tiny("deepfm", "moe", seed=5)
    for name in a.store.names():
        np.testing.assert_array_equal(a.store.get(name), b.store.get(name))
    assert any(
        not np.array_equal(a.store.get(n), c.store.get(n)) for n in a.store.names())


def test_id_out_of_range_names_field():
    m = tiny()
    bad = np.array([[2, 11]])
    with pytest.raises(ValueError, match="item_id"):
        m.predict(bad, 0)
    with pytest.raises(ValueError, match="domain"):
        m.predict(rand_ids(2), 7)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = tiny("deepfm", "moe", seed=11)
    rng = np.random.default_rng(0)
    for name in m.store.names():
        m.store.set(name, rng.normal(size=m.store.get(name).shape))
    m.store.set_trainable_only("gate")
    path = tmp_path / "model.npz"
    save_checkpoint(m, path)
    m2 = load_checkpoint(path)
    assert (m2.arch, m2.mode, m2.hidden) == (m.arch, m.mode, m.hidden)
    for name in m.store.names():
        np.testing.assert_array_equal(m.store.get(name), m2.store.get(name))
        assert m.store[name].trainable == m2.store[name].trainable
    ids = rand_ids(30, seed=8)
    np.testing.assert_array_equal(m.predict(ids, 1), m2.predict(ids, 1))


def _manifest_and_arrays(path):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    return json.loads(arrays.pop("manifest").tobytes()), arrays


def test_checkpoint_writes_the_removed_gate_options_false(tmp_path):
    m = tiny("mlp", "moe", seed=3, experts_per_domain=2)
    path = tmp_path / "model.npz"
    save_checkpoint(m, path)
    assert _manifest_and_arrays(path)[0]["adapter"] == {
        "rank": 2, "alpha": 2.0, "experts_per_domain": 2, "gate_force_one_hot": False,
        "gate_includes_backbone": False, "gate_input_conditioned": False}
    assert load_checkpoint(path).adapter_cfg == m.adapter_cfg


@pytest.mark.parametrize("key", ["gate_includes_backbone", "gate_input_conditioned"])
def test_load_refuses_a_checkpoint_with_a_removed_gate_option_set(tmp_path, key):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny("mlp", "moe"), path)
    manifest, arrays = _manifest_and_arrays(path)
    manifest["adapter"][key] = True
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **arrays)
    with pytest.raises(ValueError, match=re.escape(f"{path}: adapter option {key} was removed")):
        load_checkpoint(path)


def test_load_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.ones(3))
    with pytest.raises(ValueError, match="manifest"):
        load_checkpoint(path)


@pytest.mark.parametrize("mode", ["plain", "mlora", "moe"])
def test_small_model_gradients(mode):
    m = tiny("wdl", mode, seed=21)
    # Move adapters off their zero init so expert paths carry signal.
    rng = np.random.default_rng(1)
    for name in m.store.names():
        if name.endswith(".B"):
            m.store.set(name, rng.normal(size=m.store.get(name).shape) * 0.3)
    ids, y = sample_inputs(m, batch=5, seed=13, domain=1)
    f = model_loss_fn(m, ids, y, domain=1)
    theta0 = np.concatenate([m.store.get(n).reshape(-1) for n in m.store.names()])
    assert grad_check(f, theta0, eps=1e-5) < 1e-5


def _randomized(model, seed=0):
    """Move every tensor off its init so no gradient is trivially zero."""
    rng = np.random.default_rng(seed)
    for name in model.store.names():
        model.store.set(name, rng.normal(size=model.store.get(name).shape) * 0.5)
    return model


def _backward_as(model, view, trainable, ids, y, domain):
    model.store.set_trainable_only(trainable)
    tape, _, loss = model.tape(view)
    tape.forward(model.bind_inputs(ids, domain, y), output=loss)
    return tape.backward(loss)


def _assert_pruned_equals_full(model, view, trainable, domain):
    ids = rand_ids(40, seed=6)
    y = (np.random.default_rng(7).random(40) > 0.5).astype(float)
    full = _backward_as(model, view, lambda g: True, ids, y, domain)
    pruned = _backward_as(model, view, trainable, ids, y, domain)
    expected = {n for n, _, trainable in model.store.param_groups() if trainable} & set(full)
    assert expected and set(pruned) == expected
    for name in expected:
        assert np.array_equal(pruned[name], full[name]), name


@pytest.mark.parametrize("arch", ["mlp", "wdl", "deepfm"])
def test_gate_only_backward_bit_identical_to_full_backward(arch):
    m = _randomized(tiny(arch, "moe", seed=2, experts_per_domain=2))
    _assert_pruned_equals_full(m, "mixture", "gate", domain=1)


@pytest.mark.parametrize("arch", ["mlp", "wdl", "deepfm"])
def test_one_expert_backward_bit_identical_to_full_backward(arch):
    m = _randomized(tiny(arch, "moe", seed=4, experts_per_domain=2), seed=1)
    _assert_pruned_equals_full(m, "expert:1:1", "expert(1,1,", domain=1)


def _step(model, view, ids, y, domain):
    """One training forward and backward through ``view``: (loss, grads)."""
    tape, _, loss = model.tape(view)
    value = tape.forward(model.bind_inputs(ids, domain, y), output=loss)
    return value, tape.backward(loss)


def _bits(value, grads):
    return [value.tobytes()] + [(name, g.tobytes()) for name, g in grads.items()]


@pytest.mark.parametrize("view", ["mixture", "expert:1:0", "backbone"])
def test_tail_then_full_batch_matches_fresh_tapes(view):
    """A grown arena, and leading-row views of it, give a fresh tape's bits."""
    def build():
        m = _randomized(tiny("deepfm", "moe", seed=5, experts_per_domain=2), seed=2)
        m.store.set_trainable_only(lambda g: True)
        return m

    ids = rand_ids(40, seed=3)
    y = (np.random.default_rng(4).random(40) > 0.5).astype(float)
    used = build()
    seen = [_bits(*_step(used, view, ids[:n], y[:n], 1)) for n in (7, 40, 7)]
    assert seen[0] == seen[2]
    for n, bits in ((7, seen[0]), (40, seen[1])):
        assert _bits(*_step(build(), view, ids[:n], y[:n], 1)) == bits


def test_handed_out_arrays_survive_later_calls_at_the_same_row_count():
    m = _randomized(tiny("mlp", "moe", seed=6, experts_per_domain=2))
    m.store.set_trainable_only(lambda g: True)
    ids_a, ids_b = rand_ids(30, seed=1), rand_ids(30, seed=2)
    y = (np.random.default_rng(3).random(30) > 0.5).astype(float)
    tape, p_node, _ = m.tape("mixture")
    p = m.predict(ids_a, 0)
    out = tape.forward(m.bind_inputs(ids_a, 0), output=p_node)
    loss, grads = _step(m, "mixture", ids_a, y, 0)
    kept = [p.tobytes(), out.tobytes()] + _bits(loss, grads)
    # The next training step, at the same row count, then forward-only calls.
    adam = AdamState()
    adam_step(m.store, grads, adam, 1e-2)
    adam_step(m.store, _step(m, "mixture", ids_b, 1.0 - y, 0)[1], adam, 1e-2)
    m.predict(ids_b, 0)
    tape.forward(m.bind_inputs(ids_b, 0), output=p_node)
    assert [p.tobytes(), out.tobytes()] + _bits(loss, grads) == kept


def test_predict_keeps_no_values_and_backward_needs_a_training_forward():
    m = tiny("mlp", "moe", seed=7)
    tape, _, loss = m.tape("mixture")
    with pytest.raises(AutodiffError, match="training forward"):
        tape.backward(loss)
    ids = rand_ids(4000, seed=8)
    y = (np.random.default_rng(9).random(50) > 0.5).astype(float)
    tape.forward(m.bind_inputs(ids[:50], 0, y), output=loss)
    m.predict(ids[:1], 0)  # compiles the plan
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        p = m.predict(ids, 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # One (4000, 6) tower value alone is 192 KiB: neither the call's values
    # nor a training arena grown to its rows may outlive it.
    assert held < p.nbytes + 64 * 1024
    # The forward-only call ended the training forward's values.
    with pytest.raises(AutodiffError, match="training forward"):
        tape.backward(loss)
