import numpy as np
import pytest

from helpers import layer_forward, lora_delta
from moectr.autodiff import AutodiffError, ParamStore, Tape, grad_check
from moectr.layers import DenseLayer, GateNet, LoRAAdapter, MoELayer


def mixture(store, layer, x, domain):
    """The gated layer's forward for rows of ``domain``."""
    return layer_forward(store, lambda t, xn: layer.emit(t, xn, t.input("domain")), x,
                         domain=domain)


def bypass(store, layer, x, domain, replica=0):
    """The layer with only expert (domain, replica) added to the backbone."""
    return layer_forward(
        store, lambda t, xn: layer.emit_single_expert(t, xn, domain, replica), x)


def weights(store, gate, domain, x=None):
    """The gate's softmax weights: one row, or one per row of ``x``."""
    w = layer_forward(store, lambda t, xn: gate.emit_weights(t, t.input("domain"), xn), x,
                      domain=domain)
    return w[0] if x is None else w


def test_dense_identity_forward():
    store = ParamStore()
    layer = DenseLayer.from_arrays(store, "l0", np.eye(2), np.zeros(2), activation="relu")
    np.testing.assert_array_equal(layer_forward(store, layer.emit, [[1.0, 2.0]]),
                                  [[1.0, 2.0]])


def _one_adapter_layer():
    """An identity layer with one rank-4 adapter, alpha 4, for one domain."""
    store = ParamStore()
    base = DenseLayer(store, "l0", 8, 16, activation="identity", seed=1)
    ad = LoRAAdapter(store, "a0", d_in=8, d_out=16, rank=4, alpha=4.0,
                     group="expert(0,0,l0)", seed=3)
    return store, base, ad, MoELayer(base, [(0, 0, ad)], gate=None)


def test_zero_init_adapter_delta_is_exactly_zero():
    store, base, _, layer = _one_adapter_layer()
    x = np.random.default_rng(0).normal(size=(32, 8))
    np.testing.assert_array_equal(store.get("a0.B"), np.zeros((16, 4)))
    delta = bypass(store, layer, x, 0) - layer_forward(store, base.emit, x)
    np.testing.assert_array_equal(delta, np.zeros((32, 16)))


def test_lora_delta_shape_and_scaling():
    store, base, ad, layer = _one_adapter_layer()
    assert ad.scaling == 1.0
    store.set("a0.B", np.random.default_rng(1).normal(size=(16, 4)))
    x = np.random.default_rng(2).normal(size=(32, 8))
    d = bypass(store, layer, x, 0) - layer_forward(store, base.emit, x)
    assert d.shape == (32, 16)
    np.testing.assert_allclose(
        d, lora_delta(x, store.get("a0.A"), store.get("a0.B"), ad.scaling), atol=1e-12)


def test_gate_uniform_at_init():
    store = ParamStore()
    gate = GateNet(store, "g0", n_domains=2, n_cols=3)
    np.testing.assert_allclose(weights(store, gate, 0), np.full(3, 1.0 / 3.0), atol=1e-15)


def test_gate_weights_simplex_for_random_logits():
    store = ParamStore()
    gate = GateNet(store, "g0", n_domains=4, n_cols=5)
    store.set("g0.logits", np.random.default_rng(0).normal(size=(4, 5)) * 8.0)
    for d in range(4):
        w = weights(store, gate, d)
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) < 1e-12


def test_gate_domain_out_of_range():
    store = ParamStore()
    gate = GateNet(store, "g0", n_domains=2, n_cols=2)
    with pytest.raises(AutodiffError, match="index out of range for table of 2 rows"):
        weights(store, gate, 5)


def test_input_conditioned_gate_varies_with_input():
    store = ParamStore()
    gate = GateNet(store, "g0", n_domains=2, n_cols=3, d_in=4, input_conditioned=True)
    store.set("g0.proj", np.random.default_rng(0).normal(size=(3, 4)))
    x = np.random.default_rng(1).normal(size=(5, 4))
    w = weights(store, gate, 0, x)
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
    store, layer = _two_expert_layer()
    np.testing.assert_allclose(mixture(store, layer, [[1.0]], 0), [[0.5, 0.5]], atol=1e-15)


def test_moe_backbone_in_mixture_weighs_preactivation():
    store, layer = _two_expert_layer(include_backbone=True)
    store.set("l0.b", np.array([3.0, 3.0]))
    # Uniform over {backbone, e0, e1}: (1/3)*[3,3] + (1/3)*[1,0] + (1/3)*[0,1]
    np.testing.assert_allclose(mixture(store, layer, [[1.0]], 1),
                               [[4.0 / 3.0, 4.0 / 3.0]], atol=1e-12)


def test_mlora_only_addressed_adapter_contributes():
    store = ParamStore()
    base = DenseLayer(store, "l0", 3, 2, activation="relu", seed=0)
    ads = []
    for d in range(3):
        ad = LoRAAdapter(store, f"l0.e{d}", 3, 2, rank=2, alpha=2.0,
                         group=f"expert({d},0,l0)", seed=d)
        store.set(f"l0.e{d}.B", np.random.default_rng(10 + d).normal(size=(2, 2)))
        ads.append((d, 0, ad))
    layer = MoELayer(base, ads, gate=None)
    x = np.array([[0.3, -1.2, 0.7]])
    before = bypass(store, layer, x, 1)
    # Perturb the two other domains' adapters; domain 1 must be untouched.
    store.set("l0.e0.B", np.full((2, 2), 123.0))
    store.set("l0.e2.A", np.full((2, 3), -55.0))
    after = bypass(store, layer, x, 1)
    np.testing.assert_array_equal(before, after)


def test_mlora_domain_out_of_range():
    store = ParamStore()
    base = DenseLayer(store, "l0", 2, 2, seed=0)
    layer = MoELayer(base, [(0, 0, LoRAAdapter(store, "l0.e0", 2, 2, group="expert(0,0,l0)"))])
    with pytest.raises(AutodiffError, match=r"no expert \(1,0\) on layer 'l0'"):
        bypass(store, layer, np.ones((1, 2)), 1)


def test_moe_one_hot_equals_mlora_bitwise():
    store = ParamStore()
    base = DenseLayer(store, "l0", 4, 3, activation="relu", seed=1)
    ads = []
    for d in range(3):
        ad = LoRAAdapter(store, f"l0.e{d}", 4, 3, rank=2, alpha=4.0,
                         group=f"expert({d},0,l0)", seed=d)
        store.set(f"l0.e{d}.B", np.random.default_rng(20 + d).normal(size=(3, 2)))
        ads.append(ad)
    one_hot = MoELayer(base, [(d, 0, ad) for d, ad in enumerate(ads)], gate=None)
    # Each domain's adapter alone on the backbone, as in a per-domain model.
    alone = [MoELayer(base, [(0, 0, ad)], gate=None) for ad in ads]
    x = np.random.default_rng(5).normal(size=(7, 4))
    for d in range(3):
        np.testing.assert_array_equal(
            bypass(store, one_hot, x, d), bypass(store, alone[d], x, 0))


def test_zero_init_moe_layer_matches_dense_bitwise():
    store = ParamStore()
    base = DenseLayer(store, "l0", 5, 4, activation="relu", seed=2)
    ads = [(d, k, LoRAAdapter(store, f"l0.e{d}.{k}", 5, 4,
                              group=f"expert({d},{k},l0)", seed=7 * d + k))
           for d in range(2) for k in range(2)]
    gate = GateNet(store, "l0.gate", n_domains=2, n_cols=4)
    layer = MoELayer(base, ads, gate=gate)
    x = np.random.default_rng(3).normal(size=(11, 5))
    np.testing.assert_array_equal(mixture(store, layer, x, 0),
                                  layer_forward(store, base.emit, x))


def _hard_routed_layer(rng):
    """A relu layer with one rank-2 expert per domain for 2 domains, no gate."""
    store = ParamStore()
    base = DenseLayer(store, "l0", 5, 4, activation="relu", seed=2)
    store.set("l0.b", rng.normal(size=4))
    experts = [(d, 0, LoRAAdapter(store, f"l0.e{d}", 5, 4, rank=2, alpha=3.0,
                                  group=f"expert({d},0,l0)", seed=d)) for d in range(2)]
    return store, base, MoELayer(base, experts, gate=None)


def test_bypass_forward_matches_numpy_reference():
    rng = np.random.default_rng(41)
    store, _, layer = _hard_routed_layer(rng)
    for _, _, ad in layer.experts:
        store.set(f"{ad.name}.B", rng.normal(size=(4, 2)))
    x = rng.normal(size=(9, 5))
    W, b = store.get("l0.W"), store.get("l0.b")
    for d in range(2):
        ad = layer.expert_of(d, 0)
        A, B = store.get(f"{ad.name}.A"), store.get(f"{ad.name}.B")
        expect = np.maximum(x @ W.T + b + ad.scaling * (x @ A.T) @ B.T, 0.0)
        np.testing.assert_allclose(bypass(store, layer, x, d), expect, rtol=0.0, atol=1e-12)


def test_zero_init_bypass_matches_dense_bitwise():
    # The gated merged path has the same check in
    # test_zero_init_moe_layer_matches_dense_bitwise.
    rng = np.random.default_rng(43)
    store, base, layer = _hard_routed_layer(rng)
    x = rng.normal(size=(11, 5))
    for d in range(2):
        np.testing.assert_array_equal(bypass(store, layer, x, d),
                                      layer_forward(store, base.emit, x))


@pytest.mark.parametrize("include_backbone", [False, True])
@pytest.mark.parametrize("input_conditioned", [False, True])
def test_moe_forward_matches_per_expert_reference(include_backbone, input_conditioned):
    rng = np.random.default_rng(31)
    d_in, d_out = 5, 4
    store = ParamStore()
    base = DenseLayer(store, "l0", d_in, d_out, activation="relu", seed=4)
    store.set("l0.b", rng.normal(size=d_out))
    experts = []
    for d in range(3):
        for k in range(2):
            ad = LoRAAdapter(store, f"l0.e{d}.{k}", d_in, d_out, rank=1 + (d + k) % 3,
                             alpha=1.5 + d + 2 * k, group=f"expert({d},{k},l0)", seed=d)
            store.set(f"{ad.name}.B", rng.normal(size=(d_out, ad.rank)))
            experts.append((d, k, ad))
    n_cols = len(experts) + (1 if include_backbone else 0)
    gate = GateNet(store, "l0.gate", 3, n_cols, d_in=d_in,
                   input_conditioned=input_conditioned)
    store.set("l0.gate.logits", rng.normal(size=(3, n_cols)))
    if input_conditioned:
        store.set("l0.gate.proj", rng.normal(size=(n_cols, d_in)))
    layer = MoELayer(base, experts, gate=gate, gate_includes_backbone=include_backbone)
    x = rng.normal(size=(9, d_in))
    for domain in range(3):
        w = weights(store, gate, domain, x if input_conditioned else None)
        w = np.broadcast_to(w, (len(x), n_cols))
        pre = x @ store.get("l0.W").T + store.get("l0.b")
        if include_backbone:
            pre = w[:, :1] * pre
        mixed = pre.copy()
        for j, (_, _, ad) in enumerate(experts):
            A, B = store.get(f"{ad.name}.A"), store.get(f"{ad.name}.B")
            wj = w[:, j + n_cols - len(experts), None]
            mixed += wj * ad.scaling * (x @ A.T) @ B.T
        np.testing.assert_allclose(mixture(store, layer, x, domain), np.maximum(mixed, 0.0),
                                   rtol=0.0, atol=1e-12)


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
    tags = {g for _, g, _ in store.param_groups() if g.startswith("expert(")}
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
    with pytest.raises(AutodiffError, match="at least one column"):
        GateNet(store, "g0", n_domains=1, n_cols=0)
    with pytest.raises(AutodiffError, match="input width"):
        GateNet(store, "g1", n_domains=1, n_cols=1, input_conditioned=True)
    with pytest.raises(AutodiffError, match="backbone outside"):
        MoELayer(base, [(0, 0, ad)], gate=None, gate_includes_backbone=True)
    with pytest.raises(AutodiffError, match="one expert per domain"):
        MoELayer(base, [(0, 1, ad)], gate=None)


def test_layer_misuse_errors():
    store = ParamStore()
    base = DenseLayer(store, "l0", 2, 2, seed=0)
    ad = LoRAAdapter(store, "l0.e0", 2, 2, group="expert(0,0,l0)")
    hard = MoELayer(base, [(0, 0, ad)], gate=None)
    tape = Tape(store)
    with pytest.raises(AutodiffError, match=r"no expert \(0,1\) on layer 'l0'"):
        hard.expert_of(0, 1)
    with pytest.raises(AutodiffError, match="hard-routed"):
        hard.emit(tape, tape.input("x"), tape.input("domain"))
    gate = GateNet(store, "g0", n_domains=1, n_cols=1, d_in=2, input_conditioned=True)
    with pytest.raises(AutodiffError, match="without input node"):
        gate.emit_weights(tape, tape.input("domain"))


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
