import numpy as np
import pytest

from helpers import composite_layer_grad_err, layer_forward, lora_delta
from moectr.autodiff import AutodiffError, ParamStore, Tape
from moectr.layers import MoELayer


def mixture(store, layer, x, domain):
    """The gated layer's forward for rows of ``domain``."""
    return layer_forward(store, lambda t, xn: layer.emit(t, xn, t.input("domain")), x,
                         domain=domain)


def bypass(store, layer, x, domain, replica=0):
    """The layer with only expert (domain, replica) added to the backbone."""
    return layer_forward(
        store, lambda t, xn: layer.emit_single_expert(t, xn, domain, replica), x)


def weights(store, layer, domain):
    """The gate's softmax weights for ``domain``: the one row the mixture reads."""
    tape = Tape(store)
    layer.emit(tape, tape.input("x"), tape.input("domain"))
    softmax = next(i for i, node in enumerate(tape.nodes) if node.op == "softmax")
    return tape.forward({"domain": np.array([domain])}, output=softmax)[0]


def _small_layer(n_domains, keys):
    """A relu layer 2 -> 2 with one rank-1 expert per key and the gate over them."""
    store = ParamStore()
    return store, MoELayer(store, "l0", 2, 2, "relu", keys, rank=1, alpha=1.0,
                           n_domains=n_domains, seed=0)


def test_dense_identity_forward():
    store, layer = _small_layer(1, [(0, 0)])
    store.set("l0.W", np.eye(2))
    np.testing.assert_array_equal(layer_forward(store, layer.emit_backbone, [[1.0, 2.0]]),
                                  [[1.0, 2.0]])


def _one_adapter_layer():
    """An identity layer with one rank-4 adapter, alpha 4, for one domain."""
    store = ParamStore()
    return store, MoELayer(store, "l0", 8, 16, "identity", [(0, 0)], rank=4, alpha=4.0,
                           n_domains=1, seed=3)


def test_zero_init_adapter_delta_is_exactly_zero():
    store, layer = _one_adapter_layer()
    x = np.random.default_rng(0).normal(size=(32, 8))
    np.testing.assert_array_equal(store.get("l0.e0.0.B"), np.zeros((16, 4)))
    delta = bypass(store, layer, x, 0) - layer_forward(store, layer.emit_backbone, x)
    np.testing.assert_array_equal(delta, np.zeros((32, 16)))


def test_lora_delta_shape_and_scaling():
    store, layer = _one_adapter_layer()
    assert layer.scaling == 1.0
    store.set("l0.e0.0.B", np.random.default_rng(1).normal(size=(16, 4)))
    x = np.random.default_rng(2).normal(size=(32, 8))
    d = bypass(store, layer, x, 0) - layer_forward(store, layer.emit_backbone, x)
    assert d.shape == (32, 16)
    np.testing.assert_allclose(
        d, lora_delta(x, store.get("l0.e0.0.A"), store.get("l0.e0.0.B"), layer.scaling),
        atol=1e-12)


def test_gate_uniform_at_init():
    store, layer = _small_layer(2, [(0, 0), (0, 1), (1, 0)])
    np.testing.assert_allclose(weights(store, layer, 0), np.full(3, 1.0 / 3.0), atol=1e-15)


def test_gate_weights_simplex_for_random_logits():
    store, layer = _small_layer(4, [(d, 0) for d in range(4)] + [(0, 1)])
    store.set("l0.gate.logits", np.random.default_rng(0).normal(size=(4, 5)) * 8.0)
    for d in range(4):
        w = weights(store, layer, d)
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) < 1e-12


def test_gate_domain_out_of_range():
    store, layer = _small_layer(2, [(0, 0), (1, 0)])
    with pytest.raises(AutodiffError, match="index out of range for table of 2 rows"):
        weights(store, layer, 5)


def _two_expert_layer():
    """Two domains, one rank-1 expert each, deltas [1,0] and [0,1] for x=[1]."""
    store = ParamStore()
    layer = MoELayer(store, "l0", 1, 2, "identity", [(0, 0), (1, 0)], rank=1, alpha=1.0,
                     n_domains=2, seed=0)
    store.set("l0.W", np.zeros((2, 1)))
    for d, col in enumerate(([1.0, 0.0], [0.0, 1.0])):
        store.set(f"l0.e{d}.0.A", np.array([[1.0]]))
        store.set(f"l0.e{d}.0.B", np.array(col).reshape(2, 1))
    return store, layer


def test_moe_uniform_gate_adds_half_of_each_delta():
    store, layer = _two_expert_layer()
    np.testing.assert_allclose(mixture(store, layer, [[1.0]], 0), [[0.5, 0.5]], atol=1e-15)


def test_mlora_only_addressed_adapter_contributes():
    store = ParamStore()
    layer = MoELayer(store, "l0", 3, 2, "relu", [(d, 0) for d in range(3)], rank=2, alpha=2.0,
                     n_domains=3, seed=0)
    for d in range(3):
        store.set(f"l0.e{d}.0.B", np.random.default_rng(10 + d).normal(size=(2, 2)))
    x = np.array([[0.3, -1.2, 0.7]])
    before = bypass(store, layer, x, 1)
    # Perturb the two other domains' adapters; domain 1 must be untouched.
    store.set("l0.e0.0.B", np.full((2, 2), 123.0))
    store.set("l0.e2.0.A", np.full((2, 3), -55.0))
    after = bypass(store, layer, x, 1)
    np.testing.assert_array_equal(before, after)


def test_mlora_domain_out_of_range():
    store = ParamStore()
    layer = MoELayer(store, "l0", 2, 2, "relu", [(0, 0)], rank=4, alpha=4.0, n_domains=1,
                     seed=0)
    with pytest.raises(AutodiffError, match=r"no expert \(1,0\) on layer 'l0'"):
        bypass(store, layer, np.ones((1, 2)), 1)


def _relu_layer(n_domains):
    """A relu layer 4 -> 3 with one rank-2 expert per domain."""
    store = ParamStore()
    return store, MoELayer(store, "l0", 4, 3, "relu", [(d, 0) for d in range(n_domains)],
                           rank=2, alpha=4.0, n_domains=n_domains, seed=0)


def test_moe_one_hot_equals_mlora_bitwise():
    store, one_hot = _relu_layer(3)
    for d in range(3):
        store.set(f"l0.e{d}.0.B", np.random.default_rng(20 + d).normal(size=(3, 2)))
    x = np.random.default_rng(5).normal(size=(7, 4))
    for d in range(3):
        # Domain d's adapter alone on the backbone, as in a per-domain model.
        alone_store, alone = _relu_layer(1)
        for part in ("A", "B"):
            alone_store.set(f"l0.e0.0.{part}", store.get(f"l0.e{d}.0.{part}"))
        np.testing.assert_array_equal(
            bypass(store, one_hot, x, d), bypass(alone_store, alone, x, 0))


def test_zero_init_moe_layer_matches_dense_bitwise():
    store = ParamStore()
    layer = MoELayer(store, "l0", 5, 4, "relu", [(d, k) for d in range(2) for k in range(2)],
                     rank=4, alpha=4.0, n_domains=2, seed=7)
    x = np.random.default_rng(3).normal(size=(11, 5))
    np.testing.assert_array_equal(mixture(store, layer, x, 0),
                                  layer_forward(store, layer.emit_backbone, x))


def _hard_routed_layer(rng):
    """A relu layer with one rank-2 expert per domain for 2 domains."""
    store = ParamStore()
    layer = MoELayer(store, "l0", 5, 4, "relu", [(0, 0), (1, 0)], rank=2, alpha=3.0,
                     n_domains=2, seed=2)
    store.set("l0.b", rng.normal(size=4))
    return store, layer


def test_bypass_forward_matches_numpy_reference():
    rng = np.random.default_rng(41)
    store, layer = _hard_routed_layer(rng)
    for d in range(2):
        store.set(f"l0.e{d}.0.B", rng.normal(size=(4, 2)))
    x = rng.normal(size=(9, 5))
    W, b = store.get("l0.W"), store.get("l0.b")
    for d in range(2):
        A, B = store.get(f"l0.e{d}.0.A"), store.get(f"l0.e{d}.0.B")
        expect = np.maximum(x @ W.T + b + (3.0 / 2) * (x @ A.T) @ B.T, 0.0)
        np.testing.assert_allclose(bypass(store, layer, x, d), expect, rtol=0.0, atol=1e-12)


def test_zero_init_bypass_matches_dense_bitwise():
    # The gated merged path has the same check in
    # test_zero_init_moe_layer_matches_dense_bitwise.
    rng = np.random.default_rng(43)
    store, layer = _hard_routed_layer(rng)
    x = rng.normal(size=(11, 5))
    for d in range(2):
        np.testing.assert_array_equal(bypass(store, layer, x, d),
                                      layer_forward(store, layer.emit_backbone, x))


def test_moe_forward_matches_per_expert_reference():
    rng = np.random.default_rng(31)
    d_in, d_out, rank, alpha = 5, 4, 3, 2.5
    store = ParamStore()
    keys = [(d, k) for d in range(3) for k in range(2)]
    layer = MoELayer(store, "l0", d_in, d_out, "relu", keys, rank=rank, alpha=alpha,
                     n_domains=3, seed=4)
    store.set("l0.b", rng.normal(size=d_out))
    for d, k in keys:
        store.set(f"l0.e{d}.{k}.B", rng.normal(size=(d_out, rank)))
    store.set("l0.gate.logits", rng.normal(size=(3, len(keys))))
    x = rng.normal(size=(9, d_in))
    for domain in range(3):
        w = weights(store, layer, domain)
        mixed = x @ store.get("l0.W").T + store.get("l0.b")
        for j, (d, k) in enumerate(keys):
            A, B = store.get(f"l0.e{d}.{k}.A"), store.get(f"l0.e{d}.{k}.B")
            mixed += w[j] * (alpha / rank) * (x @ A.T) @ B.T
        np.testing.assert_allclose(mixture(store, layer, x, domain), np.maximum(mixed, 0.0),
                                   rtol=0.0, atol=1e-12)


def test_param_groups_counts_expert_groups():
    store = ParamStore()
    for li in range(3):
        MoELayer(store, f"l{li}", 4, 4, "relu", [(0, 0), (1, 0)], rank=4, alpha=4.0,
                 n_domains=2, seed=li)
    tags = {g for _, g in store.param_groups() if g.startswith("expert(")}
    assert len(tags) == 6


def test_layer_construction_errors():
    store = ParamStore()
    with pytest.raises(AutodiffError, match="unknown activation 'tanh'"):
        MoELayer(store, "l0", 2, 2, "tanh", [(0, 0)], rank=4, alpha=4.0, n_domains=1, seed=0)
    with pytest.raises(AutodiffError, match="rank"):
        MoELayer(store, "l0", 2, 2, "relu", [(0, 0)], rank=0, alpha=4.0, n_domains=1, seed=0)
    with pytest.raises(AutodiffError, match="at least one expert"):
        MoELayer(store, "l0", 2, 2, "relu", [], rank=4, alpha=4.0, n_domains=1, seed=0)


def test_layer_misuse_errors():
    store = ParamStore()
    hard = MoELayer(store, "l0", 2, 2, "relu", [(0, 0)], rank=4, alpha=4.0, n_domains=1,
                    seed=0)
    tape = Tape(store)
    with pytest.raises(AutodiffError, match=r"no expert \(0,1\) on layer 'l0'"):
        hard.emit_single_expert(tape, tape.input("x"), 0, 1)


def test_moe_mixture_gradients_match_central_differences():
    assert composite_layer_grad_err() < 1e-6
