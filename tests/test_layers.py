import numpy as np
import pytest

from moectr.autodiff import AutodiffError, ParamStore, Tape, grad_check
from moectr.layers import (
    DenseLayer,
    GateNet,
    LoRAAdapter,
    MoELayer,
    dense_forward,
    gate_weights,
    lora_delta,
    mlora_forward,
    moe_forward,
    param_groups,
)


def test_dense_identity_forward():
    store = ParamStore()
    layer = DenseLayer.from_arrays(store, "l0", np.eye(2), np.zeros(2), activation="relu")
    np.testing.assert_array_equal(dense_forward([1.0, 2.0], layer), [1.0, 2.0])


def test_zero_init_adapter_delta_is_exactly_zero():
    store = ParamStore()
    ad = LoRAAdapter(store, "a0", d_in=8, d_out=16, rank=4, alpha=4.0, seed=3)
    x = np.random.default_rng(0).normal(size=(32, 8))
    np.testing.assert_array_equal(lora_delta(x, ad), np.zeros((32, 16)))


def test_lora_delta_shape_and_scaling():
    store = ParamStore()
    ad = LoRAAdapter(store, "a0", d_in=8, d_out=16, rank=4, alpha=4.0, seed=3)
    assert ad.scaling == 1.0
    store.set("a0.B", np.random.default_rng(1).normal(size=(16, 4)))
    x = np.random.default_rng(2).normal(size=(32, 8))
    d = lora_delta(x, ad)
    assert d.shape == (32, 16)
    A = store.get("a0.A")
    B = store.get("a0.B")
    np.testing.assert_allclose(d, (x @ A.T) @ B.T * ad.scaling, atol=1e-12)


def test_gate_uniform_at_init():
    store = ParamStore()
    gate = GateNet(store, "g0", n_domains=2, n_cols=3)
    np.testing.assert_allclose(gate_weights(0, gate), np.full(3, 1.0 / 3.0), atol=1e-15)


def test_gate_weights_simplex_for_random_logits():
    store = ParamStore()
    gate = GateNet(store, "g0", n_domains=4, n_cols=5)
    store.set("g0.logits", np.random.default_rng(0).normal(size=(4, 5)) * 8.0)
    for d in range(4):
        w = gate_weights(d, gate)
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) < 1e-12


def test_gate_domain_out_of_range():
    store = ParamStore()
    gate = GateNet(store, "g0", n_domains=2, n_cols=2)
    with pytest.raises(AutodiffError, match="domain"):
        gate_weights(5, gate)


def test_input_conditioned_gate_varies_with_input():
    store = ParamStore()
    gate = GateNet(store, "g0", n_domains=2, n_cols=3, d_in=4, input_conditioned=True)
    store.set("g0.proj", np.random.default_rng(0).normal(size=(3, 4)))
    x = np.random.default_rng(1).normal(size=(5, 4))
    w = gate_weights(0, gate, x)
    assert w.shape == (5, 3)
    assert np.abs(np.diff(w, axis=0)).max() > 1e-6
    np.testing.assert_allclose(w.sum(axis=1), np.ones(5), atol=1e-12)


def _two_expert_layer(include_backbone=False):
    """Two domains, one rank-1 expert each, deltas [1,0] and [0,1] for x=[1]."""
    store = ParamStore()
    base = DenseLayer.from_arrays(store, "l0", np.zeros((2, 1)), np.zeros(2))
    ads = []
    for d, col in enumerate(([1.0, 0.0], [0.0, 1.0])):
        ad = LoRAAdapter(store, f"l0.e{d}", d_in=1, d_out=2, rank=1, alpha=1.0,
                         group=f"expert({d},0,l0)", seed=d)
        store.set(f"l0.e{d}.A", np.array([[1.0]]))
        store.set(f"l0.e{d}.B", np.array(col).reshape(2, 1))
        ads.append((d, 0, ad))
    gate = GateNet(store, "l0.gate", n_domains=2,
                   n_cols=2 + (1 if include_backbone else 0))
    return store, MoELayer(base, ads, gate=gate,
                           gate_includes_backbone=include_backbone)


def test_moe_uniform_gate_adds_half_of_each_delta():
    _, layer = _two_expert_layer()
    np.testing.assert_allclose(moe_forward([1.0], 0, layer), [0.5, 0.5], atol=1e-15)


def test_moe_backbone_in_mixture_weighs_preactivation():
    store, layer = _two_expert_layer(include_backbone=True)
    store.set("l0.b", np.array([3.0, 3.0]))
    # Uniform over {backbone, e0, e1}: (1/3)*[3,3] + (1/3)*[1,0] + (1/3)*[0,1]
    np.testing.assert_allclose(moe_forward([1.0], 1, layer),
                               [4.0 / 3.0, 4.0 / 3.0], atol=1e-12)


def test_mlora_only_addressed_adapter_contributes():
    store = ParamStore()
    base = DenseLayer(store, "l0", 3, 2, activation="relu", seed=0)
    ads = []
    for d in range(3):
        ad = LoRAAdapter(store, f"l0.e{d}", 3, 2, rank=2, alpha=2.0,
                         group=f"expert({d},0,l0)", seed=d)
        store.set(f"l0.e{d}.B", np.random.default_rng(10 + d).normal(size=(2, 2)))
        ads.append(ad)
    x = np.array([0.3, -1.2, 0.7])
    before = mlora_forward(x, 1, base, ads)
    # Perturb the two other domains' adapters; domain 1 must be untouched.
    store.set("l0.e0.B", np.full((2, 2), 123.0))
    store.set("l0.e2.A", np.full((2, 3), -55.0))
    after = mlora_forward(x, 1, base, ads)
    np.testing.assert_array_equal(before, after)


def test_mlora_domain_out_of_range():
    store = ParamStore()
    base = DenseLayer(store, "l0", 2, 2, seed=0)
    ads = [LoRAAdapter(store, "l0.e0", 2, 2, group="expert(0,0,l0)")]
    with pytest.raises(AutodiffError, match="domain"):
        mlora_forward(np.ones(2), 1, base, ads)


def test_moe_one_hot_equals_mlora_bitwise():
    store = ParamStore()
    base = DenseLayer(store, "l0", 4, 3, activation="relu", seed=1)
    ads = []
    for d in range(3):
        ad = LoRAAdapter(store, f"l0.e{d}", 4, 3, rank=2, alpha=4.0,
                         group=f"expert({d},0,l0)", seed=d)
        store.set(f"l0.e{d}.B", np.random.default_rng(20 + d).normal(size=(3, 2)))
        ads.append(ad)
    layer = MoELayer(base, [(d, 0, ad) for d, ad in enumerate(ads)], gate=None)
    x = np.random.default_rng(5).normal(size=(7, 4))
    for d in range(3):
        np.testing.assert_array_equal(
            moe_forward(x, d, layer), mlora_forward(x, d, base, ads)
        )


def test_zero_init_moe_layer_matches_dense_bitwise():
    store = ParamStore()
    base = DenseLayer(store, "l0", 5, 4, activation="relu", seed=2)
    ads = [(d, k, LoRAAdapter(store, f"l0.e{d}.{k}", 5, 4,
                              group=f"expert({d},{k},l0)", seed=7 * d + k))
           for d in range(2) for k in range(2)]
    gate = GateNet(store, "l0.gate", n_domains=2, n_cols=4)
    layer = MoELayer(base, ads, gate=gate)
    x = np.random.default_rng(3).normal(size=(11, 5))
    np.testing.assert_array_equal(moe_forward(x, 0, layer), dense_forward(x, base))


def test_param_groups_counts_expert_groups():
    store = ParamStore()
    for li in range(3):
        base = DenseLayer(store, f"l{li}", 4, 4, seed=li)
        ads = []
        for d in range(2):
            ads.append((d, 0, LoRAAdapter(store, f"l{li}.e{d}", 4, 4,
                                          group=f"expert({d},0,l{li})", seed=d)))
        GateNet(store, f"l{li}.gate", n_domains=2, n_cols=2)
        MoELayer(base, ads, gate=GateNet(store, f"l{li}.gate2", 2, 2))
    tags = {g for _, g, _ in param_groups(store) if g.startswith("expert(")}
    assert len(tags) == 6


def test_layer_construction_errors():
    store = ParamStore()
    with pytest.raises(AutodiffError, match="rank"):
        LoRAAdapter(store, "bad", 2, 2, rank=0)
    with pytest.raises(AutodiffError, match="activation"):
        DenseLayer(store, "l0", 2, 2, activation="tanh")
    base = DenseLayer(store, "l1", 2, 2, seed=0)
    with pytest.raises(AutodiffError, match="expert"):
        MoELayer(base, [], gate=None)
    ad = LoRAAdapter(store, "l1.e0", 2, 2, group="expert(0,0,l1)")
    with pytest.raises(AutodiffError, match="column"):
        MoELayer(base, [(0, 0, ad)], gate=GateNet(store, "g", 1, 5))


def test_moe_mixture_gradients_match_central_differences():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 3)) + 0.2
    y = (rng.random(6) > 0.5).astype(float).reshape(6, 1)
    layout = [
        ("l0.W", (4, 3)), ("l0.b", (4,)),
        ("l0.e0.A", (2, 3)), ("l0.e0.B", (4, 2)),
        ("l0.e1.A", (2, 3)), ("l0.e1.B", (4, 2)),
        ("l0.gate.logits", (2, 2)),
        ("head.W", (1, 4)), ("head.b", (1,)),
    ]
    sizes = [int(np.prod(s)) for _, s in layout]

    def f(theta):
        store = ParamStore()
        off = 0
        vals = {}
        for (name, shape), size in zip(layout, sizes):
            vals[name] = theta[off : off + size].reshape(shape)
            off += size
        base = DenseLayer.from_arrays(store, "l0", vals["l0.W"], vals["l0.b"], "relu")
        ads = []
        for d in range(2):
            ad = LoRAAdapter(store, f"l0.e{d}", 3, 4, rank=2, alpha=2.0,
                             group=f"expert({d},0,l0)", seed=d)
            store.set(f"l0.e{d}.A", vals[f"l0.e{d}.A"])
            store.set(f"l0.e{d}.B", vals[f"l0.e{d}.B"])
            ads.append((d, 0, ad))
        gate = GateNet(store, "l0.gate", n_domains=2, n_cols=2)
        store.set("l0.gate.logits", vals["l0.gate.logits"])
        layer = MoELayer(base, ads, gate=gate)
        head = DenseLayer.from_arrays(store, "head", vals["head.W"], vals["head.b"])
        tape = Tape(store)
        h = layer.emit(tape, tape.input("x"), tape.input("domain"))
        p = tape.sigmoid(head.emit(tape, h))
        loss = tape.bce(p, tape.input("y"))
        v = tape.forward({"x": x, "domain": np.array([1]), "y": y}, output=loss)
        grads = tape.backward(loss)
        flat = [np.asarray(grads.get(n, np.zeros(s))).reshape(-1) for n, s in layout]
        return float(v), np.concatenate(flat)

    theta0 = rng.normal(size=sum(sizes)) * 0.4
    assert grad_check(f, theta0, eps=1e-5) < 1e-6
