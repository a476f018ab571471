"""Dense layers, low-rank adapters, gates, and their mixtures.

Every layer registers its parameters in a shared ``ParamStore`` under a
group tag ("backbone", "gate", or "expert(d,k,layer)") and knows how to emit
its ops onto a ``Tape``.  An adapted layer runs as one affine map,
``x @ (W + M @ A).T + b``: its low-rank experts are folded into the weight
once per batch (LoRA's weight merge), so the batch rows meet a single
matmul.  The bypass form of a hard-routed row adds the backbone and its own
domain's expert alone (``M = (alpha/rank) * B``); the gated form adds every
expert, each ``B`` scaled per rank block by the domain's one softmax row
(``M = B_cat * (weights @ S)``, ``A`` = every expert's ``A`` stacked along
rows).
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

    def emit(self, tape: Tape, x: int) -> int:
        h = tape.matmul(x, tape.param(f"{self.name}.W"), transpose_b=True)
        return _apply_activation(tape, self.activation,
                                 tape.add(h, tape.param(f"{self.name}.b")))


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
    domain starts with a uniform mixture; a domain's weights are the softmax
    of its row.
    """

    def __init__(self, store: ParamStore, name: str, n_domains: int, n_cols: int,
                 group: str = "gate"):
        if n_cols < 1:
            raise AutodiffError("gate needs at least one column")
        self.name = name
        self.n_cols = int(n_cols)
        store.add(f"{name}.logits", np.zeros((n_domains, n_cols)), group)

    def emit_weights(self, tape: Tape, domain: int) -> int:
        return tape.softmax(tape.gather(tape.param(f"{self.name}.logits"), domain))


class MoELayer:
    """A dense layer with per-domain low-rank experts mixed by a gate.

    Experts are ordered by (domain, replica), and the gate's columns follow
    that order.  With ``gate=None`` the layer is hard-routed: each domain
    owns one expert and a row uses only its own (the per-domain adapter
    baseline).
    """

    def __init__(self, base: DenseLayer, experts: list[tuple[int, int, LoRAAdapter]],
                 gate: GateNet | None = None, n_domains: int | None = None):
        if not experts:
            raise AutodiffError("adapted layer needs at least one expert")
        self.base = base
        self.experts = sorted(experts, key=lambda e: (e[0], e[1]))
        self.n_domains = n_domains if n_domains is not None else len({d for d, _, _ in experts})
        self.gate = gate
        if gate is None:
            if [(d, k) for d, k, _ in self.experts] != [(d, 0) for d in range(self.n_domains)]:
                raise AutodiffError("hard routing requires exactly one expert per domain")
        elif gate.n_cols != len(self.experts):
            raise AutodiffError(
                f"gate has {gate.n_cols} columns, layer needs {len(self.experts)}")

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

    def emit(self, tape: Tape, x: int, domain_node: int) -> int:
        """Backbone plus the gate-weighted sum of all expert deltas, fused.

        ``domain_node`` holds one domain index, shape (1,): a batch is of one
        domain, so the gate gives one softmax row of weights for the batch.
        The experts form one bank: their ``A``s stacked along rows into
        ``A_cat`` and their ``B``s along columns into ``B_cat``.  The constant
        ``S`` (n_experts, sum of ranks) holds expert j's ``alpha/rank``
        across its rank block in row j, so ``weights @ S`` scales every rank.
        The bank is merged into the weight, ``M = B_cat * (weights @ S)`` and
        ``pre = x @ (W + M @ A_cat).T + b``.  Node count does not depend on
        the number of experts, and ``B = 0`` still gives an exact zero delta.
        """
        if self.gate is None:
            raise AutodiffError(
                f"layer {self.base.name!r} is hard-routed; emit its domain's expert")
        weights = self.gate.emit_weights(tape, domain_node)
        adapters = [ad for _, _, ad in self.experts]
        spread = np.zeros((len(adapters), sum(ad.rank for ad in adapters)))
        r0 = 0
        for j, ad in enumerate(adapters):
            spread[j, r0 : r0 + ad.rank] = ad.scaling
            r0 += ad.rank
        a_cat = tape.concat([tape.param(f"{ad.name}.A") for ad in adapters], axis=0)
        b_cat = tape.concat([tape.param(f"{ad.name}.B") for ad in adapters], axis=-1)
        rank_weights = tape.matmul(weights, tape.const(spread))
        base = self.base.name
        pre = _emit_merged_affine(
            tape, x, tape.param(f"{base}.W"), tape.param(f"{base}.b"),
            tape.mul(b_cat, rank_weights), a_cat)
        return _apply_activation(tape, self.base.activation, pre)
