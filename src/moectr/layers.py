"""Dense layers, low-rank adapters, gates, and their mixtures.

Every layer registers its parameters in a shared ``ParamStore`` under a
group tag ("backbone", "gate", or "expert(d,k,layer)") and knows how to emit
its ops onto a ``Tape``.  An adapted layer whose weights are the same for
every row of a batch runs as one affine map, ``x @ (W + M @ A).T + b``:
its low-rank experts are folded into the weight once per batch (LoRA's
weight merge), so the batch rows meet a single matmul.  That holds for the
bypass form of a hard-routed row (the backbone plus its own domain's expert
alone, ``M = (alpha/rank) * B``) and for a per-domain gate, whose one
softmax row scales every expert's ``B`` per rank block
(``M = B_cat * (weights @ S)``, ``A`` = every expert's ``A`` stacked along
rows).  Only an input-conditioned gate, whose weights differ per row, runs
the factored stacked product ``((x @ A_cat.T) * (weights @ S)) @ B_cat.T``.
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
]

ACTIVATIONS = ("relu", "identity")

# Std-dev of the Gaussian init for adapter A matrices; B starts at zero so
# every adapter's delta is exactly zero until trained.
ADAPTER_INIT_STD = 0.02


def _apply_activation(tape: Tape, name: str, node: int) -> int:
    if name == "relu":
        return tape.relu(node)
    return node


def _check_activation(activation: str) -> str:
    if activation not in ACTIVATIONS:
        raise AutodiffError(f"unknown activation {activation!r}; use one of {ACTIVATIONS}")
    return activation


def _emit_merged_affine(tape: Tape, x: int, w: int, b: int, m: int, a: int) -> int:
    """``x @ (w + m @ a).T + b``: a low-rank delta folded into the weight.

    ``m @ a`` and the merged weight are (d_out, d_in), so only one matmul
    reads the batch rows.  ``m = 0`` makes ``m @ a`` an exact zero, and the
    result then has the bits of the bare affine map.
    """
    w_eff = tape.add(w, tape.matmul(m, a))
    return tape.add(tape.matmul(x, w_eff, transpose_b=True), b)


class DenseLayer:
    """Affine map plus activation; W is (d_out, d_in), b is (d_out,)."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 activation: str = "relu", group: str = "backbone", seed: int = 0):
        self.name = name
        self.activation = _check_activation(activation)
        std = np.sqrt(2.0 / (d_in + d_out))
        w = rng_for(seed, f"{name}.W").normal(0.0, std, size=(d_out, d_in))
        store.add(f"{name}.W", w, group)
        store.add(f"{name}.b", np.zeros(d_out), group)

    @classmethod
    def from_arrays(cls, store: ParamStore, name: str, W, b,
                    activation: str = "identity", group: str = "backbone") -> "DenseLayer":
        layer = cls.__new__(cls)
        layer.name = name
        layer.activation = _check_activation(activation)
        store.add(f"{name}.W", np.asarray(W, dtype=np.float64), group)
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
        self.name = name
        self.rank = int(rank)
        self.alpha = float(alpha)
        a = rng_for(seed, f"{name}.A").normal(0.0, ADAPTER_INIT_STD, size=(rank, d_in))
        store.add(f"{name}.A", a, group)
        store.add(f"{name}.B", np.zeros((d_out, rank)), group)

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


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
        self.name = name
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

    def expert_of(self, domain: int, replica: int) -> LoRAAdapter:
        for d, k, ad in self.experts:
            if d == domain and k == replica:
                return ad
        raise AutodiffError(f"no expert ({domain},{replica}) on layer {self.base.name!r}")

    def emit_single_expert(self, tape: Tape, x: int, domain: int, replica: int) -> int:
        """Bypass form: backbone plus one expert's delta, no gate at all.

        The expert is merged into the weight, ``W + (alpha/rank) * B @ A``,
        so a batch runs one matmul through the layer.
        """
        ad = self.expert_of(domain, replica)
        base = self.base.name
        pre = _emit_merged_affine(
            tape, x, tape.param(f"{base}.W"), tape.param(f"{base}.b"),
            tape.scale(tape.param(f"{ad.name}.B"), ad.scaling), tape.param(f"{ad.name}.A"))
        return _apply_activation(tape, self.base.activation, pre)

    def emit_mixture(self, tape: Tape, x: int, weights: int) -> int:
        """Backbone plus the gate-weighted sum of all expert deltas, fused.

        The experts form one bank: their ``A``s stacked along rows into
        ``A_cat`` and their ``B``s along columns into ``B_cat``.  The
        constant ``S`` (n_cols, sum of ranks) holds expert j's
        ``alpha/rank`` across its rank block in j's gate row, so
        ``weights @ S`` scales every rank.  A per-domain gate gives one
        weight row per batch (the domain input holds one index), and the
        bank is merged into the weight: ``M = B_cat * (weights @ S)`` and
        ``pre = x @ (W + M @ A_cat).T + b``, with ``W`` and ``b`` first
        scaled by the backbone column's weight when the gate has one.  An
        input-conditioned gate gives a row per example and keeps the
        factored form ``delta = ((x @ A_cat.T) * (weights @ S)) @ B_cat.T``.
        Node count does not depend on the number of experts, and ``B = 0``
        still gives an exact zero delta.
        """
        off = 1 if self.gate_includes_backbone else 0
        adapters = [ad for _, _, ad in self.experts]
        spread = np.zeros((off + len(adapters), sum(ad.rank for ad in adapters)))
        r0 = 0
        for j, ad in enumerate(adapters):
            spread[off + j, r0 : r0 + ad.rank] = ad.scaling
            r0 += ad.rank
        a_cat = tape.concat([tape.param(f"{ad.name}.A") for ad in adapters], axis=0)
        b_cat = tape.concat([tape.param(f"{ad.name}.B") for ad in adapters], axis=-1)
        rank_weights = tape.matmul(weights, tape.const(spread))
        backbone_weight = None
        if self.gate_includes_backbone:
            backbone_weight = tape.matmul(weights, tape.const(np.eye(len(spread))[:, :1]))
        if self.gate.input_conditioned:
            pre = self.base.emit_affine(tape, x)
            if backbone_weight is not None:
                pre = tape.mul(backbone_weight, pre)
            h = tape.mul(tape.matmul(x, a_cat, transpose_b=True), rank_weights)
            pre = tape.add(pre, tape.matmul(h, b_cat, transpose_b=True))
        else:
            w = tape.param(f"{self.base.name}.W")
            b = tape.param(f"{self.base.name}.b")
            if backbone_weight is not None:
                w, b = tape.mul(backbone_weight, w), tape.mul(backbone_weight, b)
            pre = _emit_merged_affine(tape, x, w, b, tape.mul(b_cat, rank_weights), a_cat)
        return _apply_activation(tape, self.base.activation, pre)

    def emit(self, tape: Tape, x: int, domain_node: int) -> int:
        """Full gated forward: the domain's softmax weights over the columns.

        ``domain_node`` holds one domain index, shape (1,): a batch is of
        one domain, and the merged form relies on its single weight row.
        """
        if self.gate is None:
            raise AutodiffError(
                f"layer {self.base.name!r} is hard-routed; emit its domain's expert")
        weights = self.gate.emit_weights(
            tape, domain_node, x if self.gate.input_conditioned else None
        )
        return self.emit_mixture(tape, x, weights)
