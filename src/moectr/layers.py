"""Dense layers, low-rank adapters, gates, and their mixtures.

Every layer registers its parameters in a shared ``ParamStore`` under a
group tag ("backbone", "gate", or "expert(d,k,layer)") and knows how to emit
its ops onto a ``Tape``.  A gated layer mixes every expert's delta by its
softmax weights; a gateless layer is hard-routed, and a row passes through
the backbone plus its own domain's expert alone (the bypass form).

The module-level ``*_forward`` helpers build a throwaway tape around a
single layer; models assemble the same emit calls into one static tape.
"""

from __future__ import annotations

import numpy as np

from .autodiff import AutodiffError, ParamStore, Tape, rng_for

__all__ = [
    "ACTIVATIONS",
    "DenseLayer",
    "LoRAAdapter",
    "GateNet",
    "MoELayer",
    "dense_forward",
    "lora_delta",
    "mlora_forward",
    "gate_weights",
    "moe_forward",
    "param_groups",
]

ACTIVATIONS = ("relu", "sigmoid", "identity")

# Std-dev of the Gaussian init for adapter A matrices; B starts at zero so
# every adapter's delta is exactly zero until trained.
ADAPTER_INIT_STD = 0.02


def _apply_activation(tape: Tape, name: str, node: int) -> int:
    if name == "relu":
        return tape.relu(node)
    if name == "sigmoid":
        return tape.sigmoid(node)
    return node


def _check_activation(activation: str) -> str:
    if activation not in ACTIVATIONS:
        raise AutodiffError(f"unknown activation {activation!r}; use one of {ACTIVATIONS}")
    return activation


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise AutodiffError(f"expected a vector or a batch of vectors, got shape {x.shape}")


class DenseLayer:
    """Affine map plus activation; W is (d_out, d_in), b is (d_out,)."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 activation: str = "relu", group: str = "backbone", seed: int = 0):
        self.store = store
        self.name = name
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.activation = _check_activation(activation)
        std = np.sqrt(2.0 / (d_in + d_out))
        w = rng_for(seed, f"{name}.W").normal(0.0, std, size=(d_out, d_in))
        store.add(f"{name}.W", w, group)
        store.add(f"{name}.b", np.zeros(d_out), group)

    @classmethod
    def from_arrays(cls, store: ParamStore, name: str, W, b,
                    activation: str = "identity", group: str = "backbone") -> "DenseLayer":
        layer = cls.__new__(cls)
        W = np.asarray(W, dtype=np.float64)
        layer.store = store
        layer.name = name
        layer.d_in = W.shape[1]
        layer.d_out = W.shape[0]
        layer.activation = _check_activation(activation)
        store.add(f"{name}.W", W, group)
        store.add(f"{name}.b", np.asarray(b, dtype=np.float64), group)
        return layer

    def emit_affine(self, tape: Tape, x: int) -> int:
        h = tape.matmul(x, tape.param(f"{self.name}.W"), transpose_b=True)
        return tape.add(h, tape.param(f"{self.name}.b"))

    def emit(self, tape: Tape, x: int) -> int:
        return _apply_activation(tape, self.activation, self.emit_affine(tape, x))


class LoRAAdapter:
    """Low-rank delta for one dense layer: (alpha/r) * B @ (A @ x).

    A is (rank, d_in) with small Gaussian init; B is (d_out, rank) and starts
    at zero, so the delta vanishes exactly at initialization.
    """

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 rank: int = 4, alpha: float = 4.0, group: str = "expert", seed: int = 0):
        if rank < 1:
            raise AutodiffError(f"adapter rank must be >= 1, got {rank}")
        self.store = store
        self.name = name
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.rank = int(rank)
        self.alpha = float(alpha)
        a = rng_for(seed, f"{name}.A").normal(0.0, ADAPTER_INIT_STD, size=(rank, d_in))
        store.add(f"{name}.A", a, group)
        store.add(f"{name}.B", np.zeros((d_out, rank)), group)

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def emit_delta(self, tape: Tape, x: int) -> int:
        h = tape.matmul(x, tape.param(f"{self.name}.A"), transpose_b=True)
        d = tape.matmul(h, tape.param(f"{self.name}.B"), transpose_b=True)
        return tape.scale(d, self.scaling)


class GateNet:
    """Per-domain mixing weights over expert columns.

    Logits live in a (n_domains, n_cols) table initialized to zero, so every
    domain starts with a uniform mixture.  With ``input_conditioned`` a
    zero-initialized projection of the layer input is added to the selected
    row, making the weights example-dependent.
    """

    def __init__(self, store: ParamStore, name: str, n_domains: int, n_cols: int,
                 d_in: int | None = None, input_conditioned: bool = False,
                 group: str = "gate"):
        if n_cols < 1:
            raise AutodiffError("gate needs at least one column")
        if input_conditioned and d_in is None:
            raise AutodiffError("input-conditioned gate needs the layer input width")
        self.store = store
        self.name = name
        self.n_domains = int(n_domains)
        self.n_cols = int(n_cols)
        self.input_conditioned = bool(input_conditioned)
        store.add(f"{name}.logits", np.zeros((n_domains, n_cols)), group)
        if input_conditioned:
            store.add(f"{name}.proj", np.zeros((n_cols, d_in)), group)

    def emit_weights(self, tape: Tape, domain: int, x: int | None = None) -> int:
        row = tape.gather(tape.param(f"{self.name}.logits"), domain)
        if self.input_conditioned:
            if x is None:
                raise AutodiffError("input-conditioned gate emitted without input node")
            row = tape.add(tape.matmul(x, tape.param(f"{self.name}.proj"), transpose_b=True), row)
        return tape.softmax(row)


def _unit_column(tape: Tape, j: int, n: int) -> int:
    col = np.zeros((n, 1))
    col[j, 0] = 1.0
    return tape.const(col)


class MoELayer:
    """A dense layer with per-domain low-rank experts mixed by a gate.

    Experts are ordered by (domain, replica); the gate's columns follow that
    order, preceded by a backbone column when ``gate_includes_backbone`` is
    set.  With ``gate=None`` the layer is hard-routed: each domain owns one
    expert and a row uses only its own (the per-domain adapter baseline).
    """

    def __init__(self, base: DenseLayer, experts: list[tuple[int, int, LoRAAdapter]],
                 gate: GateNet | None = None, gate_includes_backbone: bool = False,
                 n_domains: int | None = None):
        if not experts:
            raise AutodiffError("adapted layer needs at least one expert")
        self.base = base
        self.experts = sorted(experts, key=lambda e: (e[0], e[1]))
        self.n_domains = n_domains if n_domains is not None else len({d for d, _, _ in experts})
        self.gate = gate
        self.gate_includes_backbone = bool(gate_includes_backbone)
        if gate is None:
            if gate_includes_backbone:
                raise AutodiffError("hard routing keeps the backbone outside the mixture")
            if [(d, k) for d, k, _ in self.experts] != [(d, 0) for d in range(self.n_domains)]:
                raise AutodiffError("hard routing requires exactly one expert per domain")
        else:
            n_cols = len(self.experts) + (1 if gate_includes_backbone else 0)
            if gate.n_cols != n_cols:
                raise AutodiffError(
                    f"gate has {gate.n_cols} columns, layer needs {n_cols}"
                )

    @property
    def store(self) -> ParamStore:
        return self.base.store

    def expert_of(self, domain: int, replica: int) -> LoRAAdapter:
        for d, k, ad in self.experts:
            if d == domain and k == replica:
                return ad
        raise AutodiffError(f"no expert ({domain},{replica}) on layer {self.base.name!r}")

    def emit_backbone(self, tape: Tape, x: int) -> int:
        return self.base.emit(tape, x)

    def emit_single_expert(self, tape: Tape, x: int, domain: int, replica: int) -> int:
        """Bypass form: backbone plus one expert's delta, no gate at all."""
        pre = self.base.emit_affine(tape, x)
        delta = self.expert_of(domain, replica).emit_delta(tape, x)
        return _apply_activation(tape, self.base.activation, tape.add(pre, delta))

    def emit_mixture(self, tape: Tape, x: int, weights: int) -> int:
        """Backbone plus the weight-column-scaled sum of all expert deltas."""
        n_cols = len(self.experts) + (1 if self.gate_includes_backbone else 0)
        pre = self.base.emit_affine(tape, x)
        if self.gate_includes_backbone:
            acc = tape.mul(tape.matmul(weights, _unit_column(tape, 0, n_cols)), pre)
            off = 1
        else:
            acc = pre
            off = 0
        for j, (_, _, adapter) in enumerate(self.experts):
            w_j = tape.matmul(weights, _unit_column(tape, j + off, n_cols))
            acc = tape.add(acc, tape.mul(w_j, adapter.emit_delta(tape, x)))
        return _apply_activation(tape, self.base.activation, acc)

    def emit(self, tape: Tape, x: int, domain_node: int) -> int:
        """Full gated forward: the domain's softmax weights over the columns."""
        if self.gate is None:
            raise AutodiffError(
                f"layer {self.base.name!r} is hard-routed; emit its domain's expert")
        weights = self.gate.emit_weights(
            tape, domain_node, x if self.gate.input_conditioned else None
        )
        return self.emit_mixture(tape, x, weights)


# ---- one-off functional forms ------------------------------------------


def _forward_one(x, store: ParamStore, emit, **inputs) -> np.ndarray:
    """Run ``emit(tape, x_node)`` on a throwaway tape for a vector or a batch."""
    xb, squeeze = _as_batch(x)
    tape = Tape(store)
    y = tape.forward({"x": xb, **inputs}, output=emit(tape, tape.input("x")))
    return y[0] if squeeze else y


def dense_forward(x, layer: DenseLayer) -> np.ndarray:
    return _forward_one(x, layer.store, layer.emit)


def lora_delta(x, adapter: LoRAAdapter) -> np.ndarray:
    return _forward_one(x, adapter.store, adapter.emit_delta)


def mlora_forward(x, domain: int, base: DenseLayer, adapters: list[LoRAAdapter]) -> np.ndarray:
    """Adapted forward where only the addressed domain's adapter contributes.

    ``adapters[d]`` is domain d's adapter; all must share ``base``'s store.
    """
    layer = MoELayer(base, [(d, 0, ad) for d, ad in enumerate(adapters)])
    return moe_forward(x, domain, layer)


def gate_weights(domain: int, gate: GateNet, x=None) -> np.ndarray:
    if not (0 <= domain < gate.n_domains):
        raise AutodiffError(f"domain index {domain} out of range for {gate.n_domains} domains")
    tape = Tape(gate.store)
    xn = None
    inputs = {"domain": np.array([domain])}
    squeeze = True
    if gate.input_conditioned:
        xb, squeeze = _as_batch(x)
        xn = tape.input("x")
        inputs["x"] = xb
    out = gate.emit_weights(tape, tape.input("domain"), xn)
    w = tape.forward(inputs, output=out)
    return w[0] if squeeze else w


def moe_forward(x, domain: int, layer: MoELayer) -> np.ndarray:
    if not (0 <= domain < layer.n_domains):
        raise AutodiffError(f"domain index {domain} out of range for {layer.n_domains} domains")
    if layer.gate is None:
        return _forward_one(
            x, layer.store, lambda tape, xn: layer.emit_single_expert(tape, xn, domain, 0))
    return _forward_one(x, layer.store,
                        lambda tape, xn: layer.emit(tape, xn, tape.input("domain")),
                        domain=np.array([domain]))


def param_groups(store: ParamStore) -> list[tuple[str, str, bool]]:
    """(name, group tag, trainable) for every registered parameter."""
    return store.param_groups()
