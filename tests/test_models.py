import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import byte_identity
from helpers import fm_pairwise, grad_check, model_loss_fn, sample_inputs, wide_logit
from moectr import autodiff
from moectr.autodiff import AutodiffError, Tape
from moectr.models import (
    PREDICT_BLOCK_ROWS,
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
    groups = [g for _, g in m.store.param_groups()]
    expert_tags = {g for g in groups if g.startswith("expert(")}
    gate_params = [n for n, g in m.store.param_groups() if g == "gate"]
    # tower depth 2 plus head: 3 adapted layers, 2 domains x 2 replicas each.
    assert len(expert_tags) == 12
    assert len(gate_params) == 3


PINNED_PARAMS = {
    "moe": [
        ("emb.u", "backbone", (5, 2)),
        ("emb.i", "backbone", (4, 2)),
        ("tower.0.W", "backbone", (3, 4)),
        ("tower.0.b", "backbone", (3,)),
        ("tower.0.e0.0.A", "expert(0,0,tower.0)", (2, 4)),
        ("tower.0.e0.0.B", "expert(0,0,tower.0)", (3, 2)),
        ("tower.0.e0.1.A", "expert(0,1,tower.0)", (2, 4)),
        ("tower.0.e0.1.B", "expert(0,1,tower.0)", (3, 2)),
        ("tower.0.e1.0.A", "expert(1,0,tower.0)", (2, 4)),
        ("tower.0.e1.0.B", "expert(1,0,tower.0)", (3, 2)),
        ("tower.0.e1.1.A", "expert(1,1,tower.0)", (2, 4)),
        ("tower.0.e1.1.B", "expert(1,1,tower.0)", (3, 2)),
        ("tower.0.gate.logits", "gate", (2, 4)),
        ("head.W", "backbone", (1, 3)),
        ("head.b", "backbone", (1,)),
        ("head.e0.0.A", "expert(0,0,head)", (2, 3)),
        ("head.e0.0.B", "expert(0,0,head)", (1, 2)),
        ("head.e0.1.A", "expert(0,1,head)", (2, 3)),
        ("head.e0.1.B", "expert(0,1,head)", (1, 2)),
        ("head.e1.0.A", "expert(1,0,head)", (2, 3)),
        ("head.e1.0.B", "expert(1,0,head)", (1, 2)),
        ("head.e1.1.A", "expert(1,1,head)", (2, 3)),
        ("head.e1.1.B", "expert(1,1,head)", (1, 2)),
        ("head.gate.logits", "gate", (2, 4)),
    ],
    "mlora": [
        ("emb.u", "backbone", (5, 2)),
        ("emb.i", "backbone", (4, 2)),
        ("tower.0.W", "backbone", (3, 4)),
        ("tower.0.b", "backbone", (3,)),
        ("tower.0.e0.0.A", "expert(0,0,tower.0)", (2, 4)),
        ("tower.0.e0.0.B", "expert(0,0,tower.0)", (3, 2)),
        ("tower.0.e1.0.A", "expert(1,0,tower.0)", (2, 4)),
        ("tower.0.e1.0.B", "expert(1,0,tower.0)", (3, 2)),
        ("tower.0.gate.logits", "gate", (2, 2)),
        ("head.W", "backbone", (1, 3)),
        ("head.b", "backbone", (1,)),
        ("head.e0.0.A", "expert(0,0,head)", (2, 3)),
        ("head.e0.0.B", "expert(0,0,head)", (1, 2)),
        ("head.e1.0.A", "expert(1,0,head)", (2, 3)),
        ("head.e1.0.B", "expert(1,0,head)", (1, 2)),
        ("head.gate.logits", "gate", (2, 2)),
    ],
}
# Every mode builds the same parameters; plain leaves its adapters and gates unused.
PINNED_PARAMS["plain"] = PINNED_PARAMS["mlora"]


@pytest.mark.parametrize("mode,experts_per_domain", [("moe", 2), ("mlora", 1), ("plain", 1)])
def test_param_registration_order_is_pinned(mode, experts_per_domain):
    # Checkpoint keys p00000, p00001, ... follow this order, so a reordered
    # registration changes every checkpoint's bytes on any platform.
    m = build_model(FeatureSchema((("u", 5), ("i", 4)), 2, n_domains=2), "mlp", mode,
                    AdapterConfig(rank=2, alpha=2.0, experts_per_domain=experts_per_domain),
                    hidden=(3,))
    got = [(n, g, m.store.get(n).shape) for n, g in m.store.param_groups()]
    assert got == PINNED_PARAMS[mode]


# (op, name) of every node, in push order, of three views of the moe model
# above.  A refactor that reorders, adds or drops a node changes a graph here.
PINNED_GRAPHS = {
    "backbone": [
        ("param", "emb.u"), ("input", "ids.u"), ("gather", None), ("param", "emb.i"),
        ("input", "ids.i"), ("gather", None), ("concat", None), ("param", "tower.0.W"),
        ("matmul", None), ("param", "tower.0.b"), ("add", None), ("relu", None),
        ("param", "head.W"), ("matmul", None), ("param", "head.b"), ("add", None),
        ("sigmoid", None), ("input", "y"), ("bce", None),
    ],
    "expert:1:1": [
        ("param", "emb.u"), ("input", "ids.u"), ("gather", None), ("param", "emb.i"),
        ("input", "ids.i"), ("gather", None), ("concat", None), ("param", "tower.0.W"),
        ("param", "tower.0.b"), ("param", "tower.0.e1.1.B"), ("scale", None),
        ("param", "tower.0.e1.1.A"), ("matmul", None), ("add", None), ("matmul", None),
        ("add", None), ("relu", None), ("param", "head.W"), ("param", "head.b"),
        ("param", "head.e1.1.B"), ("scale", None), ("param", "head.e1.1.A"), ("matmul", None),
        ("add", None), ("matmul", None), ("add", None), ("sigmoid", None), ("input", "y"),
        ("bce", None),
    ],
    "mixture": [
        ("param", "emb.u"), ("input", "ids.u"), ("gather", None), ("param", "emb.i"),
        ("input", "ids.i"), ("gather", None), ("concat", None), ("input", "domain"),
        ("param", "tower.0.gate.logits"), ("gather", None), ("softmax", None),
        ("param", "tower.0.e0.0.A"), ("param", "tower.0.e0.1.A"), ("param", "tower.0.e1.0.A"),
        ("param", "tower.0.e1.1.A"), ("concat", None), ("param", "tower.0.e0.0.B"),
        ("param", "tower.0.e0.1.B"), ("param", "tower.0.e1.0.B"), ("param", "tower.0.e1.1.B"),
        ("concat", None), ("const", None), ("matmul", None), ("param", "tower.0.W"),
        ("param", "tower.0.b"), ("mul", None), ("matmul", None), ("add", None),
        ("matmul", None), ("add", None), ("relu", None), ("param", "head.gate.logits"),
        ("gather", None), ("softmax", None), ("param", "head.e0.0.A"),
        ("param", "head.e0.1.A"), ("param", "head.e1.0.A"), ("param", "head.e1.1.A"),
        ("concat", None), ("param", "head.e0.0.B"), ("param", "head.e0.1.B"),
        ("param", "head.e1.0.B"), ("param", "head.e1.1.B"), ("concat", None), ("const", None),
        ("matmul", None), ("param", "head.W"), ("param", "head.b"), ("mul", None),
        ("matmul", None), ("add", None), ("matmul", None), ("add", None), ("sigmoid", None),
        ("input", "y"), ("bce", None),
    ],
}


@pytest.mark.parametrize("view", sorted(PINNED_GRAPHS))
def test_view_graph_is_pinned(view):
    m = build_model(FeatureSchema((("u", 5), ("i", 4)), 2, n_domains=2), "mlp", "moe",
                    AdapterConfig(rank=2, alpha=2.0, experts_per_domain=2), hidden=(3,))
    tape, _, _ = m.tape(view)
    assert [(node.op, node.meta.get("name")) for node in tape.nodes] == PINNED_GRAPHS[view]


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


@pytest.mark.parametrize("mode,bad_views", [
    ("plain", ["expert:0:1", "expert:7:3", "bogus"]),
    ("mlora", ["expert:0:1", "expert:2:0", "expert:x:0", "bogus"]),
    ("moe", ["expert:0:1", "expert:x:0", "bogus"]),
])
def test_an_unknown_view_is_refused_naming_it_and_the_routing(mode, bad_views):
    m = tiny("mlp", mode)
    for view in bad_views:
        with pytest.raises(AutodiffError, match=re.escape(
                f"{mode} model has no view {view!r}")):
            m.predict(rand_ids(4), 0, view=view)
    assert set(m._tapes) <= set(m.views())


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


def test_seeds_that_agree_in_their_low_32_bits_draw_different_weights():
    a = tiny("deepfm", "moe", seed=0)
    b = tiny("deepfm", "moe", seed=2**32)
    # Every randomly drawn tensor differs: the embeddings, weights and A's.
    drawn = [n for n in a.store.names() if a.store.get(n).any()]
    assert drawn and all(
        not np.array_equal(a.store.get(n), b.store.get(n)) for n in drawn)


def test_id_out_of_range_names_field():
    m = tiny()
    bad = np.array([[2, 11]])
    with pytest.raises(ValueError, match="item_id"):
        m.predict(bad, 0)
    with pytest.raises(ValueError, match="domain"):
        m.predict(rand_ids(2), 7)


@pytest.mark.parametrize("mode", ["plain", "mlora", "moe"])
def test_predict_refuses_a_domain_that_is_not_an_integer_in_range(mode):
    m = tiny("mlp", mode)
    ids = rand_ids(3)
    for bad in (1.5, True, np.float64(1.0), 2, -1):
        with pytest.raises(ValueError, match=re.escape(
                f"domain must be an integer in [0, 2), got {bad!r}")):
            m.predict(ids, bad)
    np.testing.assert_array_equal(m.predict(ids, np.int64(1)), m.predict(ids, 1))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = tiny("deepfm", "moe", seed=11)
    rng = np.random.default_rng(0)
    for name in m.store.names():
        m.store.set(name, rng.normal(size=m.store.get(name).shape))
    path = tmp_path / "model.npz"
    save_checkpoint(m, path)
    m2 = load_checkpoint(path)
    assert (m2.arch, m2.mode, m2.hidden) == (m.arch, m.mode, m.hidden)
    for name in m.store.names():
        np.testing.assert_array_equal(m.store.get(name), m2.store.get(name))
    ids = rand_ids(30, seed=8)
    np.testing.assert_array_equal(m.predict(ids, 1), m2.predict(ids, 1))


def _manifest_and_arrays(path):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    return json.loads(arrays.pop("manifest").tobytes()), arrays


def test_checkpoint_manifest_has_no_trainable_key_and_an_old_one_is_ignored(tmp_path):
    m = _randomized(tiny("wdl", "moe", seed=12, experts_per_domain=2))
    path = tmp_path / "model.npz"
    save_checkpoint(m, path)
    manifest, arrays = _manifest_and_arrays(path)
    assert all(set(rec) == {"name", "group", "key"} for rec in manifest["params"])
    # Older checkpoints carry a per-parameter flag; it loads and changes nothing.
    for rec in manifest["params"]:
        rec["trainable"] = rec["group"] == "gate"
    old = tmp_path / "old.npz"
    np.savez(old, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **arrays)
    fresh, legacy = load_checkpoint(path), load_checkpoint(old)
    for name in m.store.names():
        assert legacy.store.get(name).tobytes() == fresh.store.get(name).tobytes()
    ids = rand_ids(30, seed=8)
    for d in range(2):
        assert legacy.predict(ids, d).tobytes() == m.predict(ids, d).tobytes()
        assert fresh.predict(ids, d).tobytes() == m.predict(ids, d).tobytes()


def test_checkpoint_writes_the_removed_gate_options_false(tmp_path):
    m = tiny("mlp", "moe", seed=3, experts_per_domain=2)
    path = tmp_path / "model.npz"
    save_checkpoint(m, path)
    assert _manifest_and_arrays(path)[0]["adapter"] == {
        "rank": 2, "alpha": 2.0, "experts_per_domain": 2, "gate_force_one_hot": False,
        "gate_includes_backbone": False, "gate_input_conditioned": False}
    assert load_checkpoint(path).adapter_cfg == m.adapter_cfg


@pytest.mark.parametrize("key", ["gate_force_one_hot", "gate_includes_backbone",
                                 "gate_input_conditioned"])
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


def _backward_as(model, view, wrt, ids, y, domain):
    tape, _, loss = model.tape(view)
    tape.forward(model.bind_inputs(ids, domain, y), output=loss)
    return tape.backward(loss, wrt)


def _assert_pruned_equals_full(model, view, own, domain):
    ids = rand_ids(40, seed=6)
    y = (np.random.default_rng(7).random(40) > 0.5).astype(float)
    wrt = [n for n, g in model.store.param_groups() if g.startswith(own)]
    full = _backward_as(model, view, model.store.names(), ids, y, domain)
    pruned = _backward_as(model, view, wrt, ids, y, domain)
    expected = set(wrt) & set(full)
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
    return value, tape.backward(loss, model.store.names())


def _bits(value, grads):
    return [value.tobytes()] + [(name, g.tobytes()) for name, g in grads.items()]


@pytest.mark.parametrize("view", ["mixture", "expert:1:0", "backbone"])
def test_tail_then_full_batch_matches_fresh_tapes(view):
    """A grown arena, and leading-row views of it, give a fresh tape's bits."""
    def build():
        return _randomized(tiny("deepfm", "moe", seed=5, experts_per_domain=2), seed=2)

    ids = rand_ids(40, seed=3)
    y = (np.random.default_rng(4).random(40) > 0.5).astype(float)
    used = build()
    seen = [_bits(*_step(used, view, ids[:n], y[:n], 1)) for n in (7, 40, 7)]
    assert seen[0] == seen[2]
    for n, bits in ((7, seen[0]), (40, seen[1])):
        assert _bits(*_step(build(), view, ids[:n], y[:n], 1)) == bits


@pytest.mark.parametrize("view", ["mixture", "expert:1:0", "backbone"])
def test_a_released_tape_trains_again_as_a_fresh_tape(view):
    def build():
        return _randomized(tiny("wdl", "moe", seed=5, experts_per_domain=2), seed=2)

    ids = rand_ids(40, seed=3)
    y = (np.random.default_rng(4).random(40) > 0.5).astype(float)
    used = build()
    _step(used, view, ids, y, 1)
    tape, _, loss = used.tape(view)
    tape.release()
    assert not tape._arena and not tape._bound
    with pytest.raises(AutodiffError, match="training forward"):
        tape.backward(loss, used.store.names())
    # A smaller batch than the released arena's: it grows anew, from nothing.
    again = _bits(*_step(used, view, ids[:7], y[:7], 1))
    assert again == _bits(*_step(build(), view, ids[:7], y[:7], 1))


@pytest.mark.parametrize("view", ["mixture", "expert:1:0", "backbone"])
def test_a_predict_drops_the_training_arena_and_the_next_step_keeps_its_bits(view):
    def build():
        return _randomized(tiny("wdl", "moe", seed=5, experts_per_domain=2), seed=2)

    ids, later = rand_ids(40, seed=3), rand_ids(40, seed=8)
    y = (np.random.default_rng(4).random(40) > 0.5).astype(float)
    used, never = build(), build()
    for model in (used, never):
        _step(model, view, ids, y, 1)
    tape = used.tape(view)[0]
    used.predict(ids, 1, view=view)
    assert not tape._arena and not tape._bound and tape._train is None
    assert _bits(*_step(used, view, later, y, 1)) == _bits(*_step(never, view, later, y, 1))


def test_handed_out_arrays_survive_later_calls_at_the_same_row_count():
    m = _randomized(tiny("mlp", "moe", seed=6, experts_per_domain=2))
    ids_a, ids_b = rand_ids(30, seed=1), rand_ids(30, seed=2)
    y = (np.random.default_rng(3).random(30) > 0.5).astype(float)
    tape, p_node, _ = m.tape("mixture")
    p = m.predict(ids_a, 0)
    out = tape.forward(m.bind_inputs(ids_a, 0), output=p_node)
    loss, grads = _step(m, "mixture", ids_a, y, 0)
    kept = [p.tobytes(), out.tobytes()] + _bits(loss, grads)
    # The next training step, at the same row count, then forward-only calls.
    adam = AdamState(m.store, grads)
    adam_step(m.store, grads, adam, 1e-2)
    adam_step(m.store, _step(m, "mixture", ids_b, 1.0 - y, 0)[1], adam, 1e-2)
    m.predict(ids_b, 0)
    tape.forward(m.bind_inputs(ids_b, 0), output=p_node)
    assert [p.tobytes(), out.tobytes()] + _bits(loss, grads) == kept


def test_predict_keeps_no_values_and_backward_needs_a_training_forward():
    m = tiny("mlp", "moe", seed=7)
    tape, _, loss = m.tape("mixture")
    with pytest.raises(AutodiffError, match="training forward"):
        tape.backward(loss, m.store.names())
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
        tape.backward(loss, m.store.names())


def _on_fixture_platform() -> bool:
    with open(byte_identity.FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)["platform"] == byte_identity.fingerprint()


def _count_blocks(monkeypatch) -> list[int]:
    """Patch ``Tape.forward_blocks`` to note the rows of each block it runs."""
    rows = []
    forward_blocks = Tape.forward_blocks

    def counted(self, shared, blocks, output):
        def noted():
            for block in blocks:
                rows.append(len(block["ids.user_id"]))
                yield block
        return forward_blocks(self, shared, noted(), output)

    monkeypatch.setattr(Tape, "forward_blocks", counted)
    return rows


@pytest.mark.parametrize("mode", ["plain", "mlora", "moe"])
@pytest.mark.parametrize("rows,forwards", [
    (PREDICT_BLOCK_ROWS * 5 // 2, 3),  # a half-block tail runs on its own
    (PREDICT_BLOCK_ROWS * 2 + 5, 2),   # a short tail joins the block before it
    (0, 0),
])
def test_blocked_predict_matches_one_unblocked_forward(monkeypatch, mode, rows, forwards):
    m = _randomized(tiny("mlp", mode, seed=4), seed=3)
    ids = rand_ids(rows, seed=5)
    tape, p_node, _ = m.tape(m.predict_view(1))
    want = tape.forward(m.bind_inputs(ids, 1), output=p_node).reshape(-1)
    calls = _count_blocks(monkeypatch)
    got = m.predict(ids, 1)
    assert len(calls) == forwards and sum(calls) == rows
    assert got.shape == (rows,) and got.dtype == np.float64
    # As in the byte-identity test: a BLAS elsewhere may round a matmul
    # differently by row count.
    if _on_fixture_platform():
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_predict_memory_is_bounded_by_one_block():
    m = build_model(SCHEMA, "mlp", "moe", AdapterConfig(rank=2, alpha=2.0), seed=0,
                    hidden=(64, 32))
    ids = rand_ids(10 * PREDICT_BLOCK_ROWS, seed=6)
    m.predict(ids[:1], 0)  # compiles the plan
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p = m.predict(ids, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # One pass over all ten blocks' rows would hold several (rows, 64)
    # values at once, 20 MiB each; a block's are a tenth of that.
    assert peak < p.nbytes + 2 * PREDICT_BLOCK_ROWS * 64 * 8


def _reads_ids(tape, nid) -> bool:
    """Whether node ``nid`` depends on an ``ids.<field>`` input."""
    node = tape.nodes[nid]
    if node.op == "input":
        return node.meta["name"].startswith("ids.")
    return any(_reads_ids(tape, a) for a in node.args)


@pytest.mark.parametrize("mode", ["plain", "mlora", "moe"])
def test_a_three_block_predict_runs_each_row_independent_step_once(monkeypatch, mode):
    runs = Counter()
    kernel = autodiff._forward_kernel

    def counting(nid, node, nodes):
        run = kernel(nid, node, nodes)

        def counted(vals, out):
            runs[nid] += 1
            return run(vals, out)
        return counted

    monkeypatch.setattr(autodiff, "_forward_kernel", counting)
    m = _randomized(tiny("mlp", mode, seed=4), seed=3)  # compiles no plan
    m.predict(rand_ids(3 * PREDICT_BLOCK_ROWS, seed=5), 1)
    tape = m.tape(m.predict_view(1))[0]
    once = {nid for nid in runs if not _reads_ids(tape, nid)}
    assert all(runs[nid] == (1 if nid in once else 3) for nid in runs)
    ops = Counter(tape.nodes[nid].op for nid in once)
    # Per layer: backbone none; the bypass form's scaled B, B @ A and
    # merged W; the mixture's gate, softmax, concats and merged weight too.
    assert ops == {"plain": {}, "mlora": {"scale": 3, "matmul": 3, "add": 3},
                   "moe": {"gather": 3, "softmax": 3, "concat": 6, "matmul": 6,
                           "mul": 3, "add": 3}}[mode]


@pytest.mark.parametrize("mode", ["plain", "mlora", "moe"])
def test_a_three_block_predict_equals_three_one_block_predicts(monkeypatch, mode):
    m = _randomized(tiny("mlp", mode, seed=4), seed=3)
    ids = rand_ids(3 * PREDICT_BLOCK_ROWS, seed=5)
    before = m.store.group_checksum(lambda g: True)
    blocks = _count_blocks(monkeypatch)
    got = m.predict(ids, 1)
    assert blocks == [PREDICT_BLOCK_ROWS] * 3
    # A block that wrote into a value all blocks share, or into a
    # parameter, would move the blocks after it or the checksum.
    want = [m.predict(ids[i:i + PREDICT_BLOCK_ROWS], 1)
            for i in range(0, ids.shape[0], PREDICT_BLOCK_ROWS)]
    assert got.tobytes() == np.concatenate(want).tobytes()
    assert m.store.group_checksum(lambda g: True) == before


@pytest.mark.parametrize("mode", ["plain", "mlora", "moe"])
def test_an_out_of_range_id_in_the_last_block_is_refused_naming_its_field(mode):
    m = tiny("mlp", mode)
    ids = rand_ids(3 * PREDICT_BLOCK_ROWS, seed=5)
    ids[-1, 1] = 11
    with pytest.raises(ValueError, match=re.escape(
            "index out of range for table of 11 rows (input 'ids.item_id')")):
        m.predict(ids, 1)


@pytest.mark.parametrize("fields,named", [
    ((), "schema needs at least one feature field"),
    ((("user_id", 3), ("user_id", 4)), "duplicate field names in schema"),
])
def test_schema_refuses_no_fields_and_duplicate_names(fields, named):
    with pytest.raises(ValueError, match=named):
        FeatureSchema(fields)


def test_build_model_names_an_unknown_mode_or_arch():
    with pytest.raises(ValueError, match="unknown mode 'mmoe'"):
        build_model(SCHEMA, "mlp", "mmoe")
    with pytest.raises(ValueError, match="unknown arch 'tide'"):
        build_model(SCHEMA, "tide", "plain")


def test_predict_refuses_ids_of_the_wrong_shape_or_kind():
    m = tiny()
    for bad in (np.zeros(2, dtype=int), np.zeros((3, 3), dtype=int)):
        named = re.escape(f"ids must be (batch, 2), got {bad.shape}")
        with pytest.raises(ValueError, match=named):
            m.predict(bad, 0)
    with pytest.raises(ValueError, match=r"index array must be integer \(input 'ids.user_id'\)"):
        m.predict(np.zeros((3, 2)), 0)


def test_load_refuses_an_unknown_format_and_a_mismatched_parameter_set(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny("mlp", "moe"), path)
    manifest, arrays = _manifest_and_arrays(path)

    def resave(**changes):
        body = json.dumps({**manifest, **changes}).encode()
        np.savez(path, manifest=np.frombuffer(body, dtype=np.uint8), **arrays)

    resave(format="other-checkpoint")
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown checkpoint format")):
        load_checkpoint(path)
    resave(params=manifest["params"][:-1])
    with pytest.raises(ValueError, match="parameter set does not match model config"):
        load_checkpoint(path)


def test_load_names_the_parameters_that_do_not_match(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny("mlp", "mlora"), path)
    manifest, arrays = _manifest_and_arrays(path)

    def resave(params):
        body = json.dumps({**manifest, "params": params}).encode()
        kept = {rec["key"]: arrays[rec["key"]] for rec in params if rec["key"] in arrays}
        np.savez(path, manifest=np.frombuffer(body, dtype=np.uint8), **kept)

    # An mlora checkpoint written before every mode built gate tables.
    resave([rec for rec in manifest["params"] if rec["group"] != "gate"])
    with pytest.raises(ValueError, match=re.escape(
            "missing head.gate.logits, tower.0.gate.logits, tower.1.gate.logits, "
            "unexpected none")):
        load_checkpoint(path)
    resave([rec for rec in manifest["params"] if not rec["name"].startswith("head.")]
           + [{**manifest["params"][0], "name": "bogus"}])
    with pytest.raises(ValueError, match=re.escape(
            "missing head.W, head.b, head.e0.0.A, 4 more, unexpected bogus")):
        load_checkpoint(path)


def test_load_names_a_parameter_whose_array_is_absent(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny("mlp", "moe"), path)
    manifest, arrays = _manifest_and_arrays(path)
    rec = next(r for r in manifest["params"] if r["name"] == "tower.1.b")
    del arrays[rec["key"]]
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **arrays)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: no array for parameter 'tower.1.b'")):
        load_checkpoint(path)
