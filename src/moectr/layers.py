"""Dense layers, per-domain gates, and adapted layers with one expert bank each.

Every layer registers its parameters in a shared ``ParamStore`` under a
group tag ("backbone", "gate", or "expert(d,k,layer)") and knows how to emit
its ops onto a ``Tape``.  An adapted layer owns a bank of low-rank experts
(LoRA adapters), all of one rank and one ``alpha``, plus a gate table over
them.  It runs as one affine map, ``x @ (W + M @ A).T + b``: its experts are
folded into the weight once per batch (LoRA's weight merge), so the batch
rows meet a single matmul.  The bypass form adds the backbone and one expert
alone (``M = (alpha/rank) * B``); the gated form adds every expert, each
``B`` scaled per rank block by the domain's one softmax row
(``M = B_cat * (weights @ S)``, ``A`` = every expert's ``A`` stacked along
rows).
"""

from __future__ import annotations

import numpy as np

from .autodiff import AutodiffError, ParamStore, Tape, rng_for

__all__ = [
    "ACTIVATIONS",
    "DenseLayer",
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
                 activation: str = "relu", seed: int = 0):
        self.name = name
        self.activation = _check_activation(activation)
        std = np.sqrt(2.0 / (d_in + d_out))
        w = rng_for(seed, f"{name}.W").normal(0.0, std, size=(d_out, d_in))
        store.add(f"{name}.W", w, "backbone")
        store.add(f"{name}.b", np.zeros(d_out), "backbone")

    def emit(self, tape: Tape, x: int) -> int:
        h = tape.matmul(x, tape.param(f"{self.name}.W"), transpose_b=True)
        return _apply_activation(tape, self.activation,
                                 tape.add(h, tape.param(f"{self.name}.b")))


class GateNet:
    """Per-domain mixing weights over expert columns.

    Logits live in a (n_domains, n_cols) table initialized to zero, so every
    domain starts with a uniform mixture; a domain's weights are the softmax
    of its row.
    """

    def __init__(self, store: ParamStore, name: str, n_domains: int, n_cols: int):
        if n_cols < 1:
            raise AutodiffError("gate needs at least one column")
        self.name = name
        store.add(f"{name}.logits", np.zeros((n_domains, n_cols)), "gate")

    def emit_weights(self, tape: Tape, domain: int) -> int:
        return tape.softmax(tape.gather(tape.param(f"{self.name}.logits"), domain))


class MoELayer:
    """A dense layer with a bank of per-domain low-rank experts.

    Expert ``(d, k)``, replica k of domain d, is ``{base}.e{d}.{k}``: ``A``
    (rank, d_in) drawn Gaussian and ``B`` (d_out, rank) zero, both tagged
    ``expert(d,k,base)``, so its delta ``(alpha/rank) * B @ A`` is exactly
    zero until trained.  The experts are registered in ``keys`` order, then
    the gate table ``{base}.gate``, whose columns follow that order and
    which starts uniform.  The bypass form uses one expert and not the gate
    (a per-domain adapter row); the mixture uses every expert and the gate.
    """

    def __init__(self, store: ParamStore, base: DenseLayer, keys: list[tuple[int, int]],
                 rank: int, alpha: float, n_domains: int, seed: int):
        if not keys:
            raise AutodiffError("adapted layer needs at least one expert")
        if rank < 1:
            raise AutodiffError(f"adapter rank must be >= 1, got {rank}")
        self.base = base
        self.rank = int(rank)
        self.scaling = float(alpha) / self.rank
        self.experts = [f"{base.name}.e{d}.{k}" for d, k in keys]
        d_out, d_in = store.get(f"{base.name}.W").shape
        for (d, k), name in zip(keys, self.experts):
            a = rng_for(seed, f"{name}.A").normal(0.0, ADAPTER_INIT_STD, size=(rank, d_in))
            store.add(f"{name}.A", a, f"expert({d},{k},{base.name})")
            store.add(f"{name}.B", np.zeros((d_out, rank)), f"expert({d},{k},{base.name})")
        self.gate = GateNet(store, f"{base.name}.gate", n_domains, len(keys))

    def emit_single_expert(self, tape: Tape, x: int, domain: int, replica: int) -> int:
        """Bypass form: backbone plus one expert's delta, no gate at all.

        The expert is merged into the weight, ``W + (alpha/rank) * B @ A``,
        so a batch runs one matmul through the layer.
        """
        base = self.base.name
        expert = f"{base}.e{domain}.{replica}"
        if expert not in self.experts:
            raise AutodiffError(f"no expert ({domain},{replica}) on layer {base!r}")
        pre = _emit_merged_affine(
            tape, x, tape.param(f"{base}.W"), tape.param(f"{base}.b"),
            tape.scale(tape.param(f"{expert}.B"), self.scaling), tape.param(f"{expert}.A"))
        return _apply_activation(tape, self.base.activation, pre)

    def emit(self, tape: Tape, x: int, domain_node: int) -> int:
        """Backbone plus the gate-weighted sum of all expert deltas, fused.

        ``domain_node`` holds one domain index, shape (1,): a batch is of one
        domain, so the gate gives one softmax row of weights for the batch.
        The bank's ``A``s are stacked along rows into ``A_cat`` and its
        ``B``s along columns into ``B_cat``.  The constant ``S`` (n_experts,
        n_experts * rank) holds ``alpha/rank`` across expert j's rank block
        in row j, so ``weights @ S`` scales every rank.  The bank is merged
        into the weight, ``M = B_cat * (weights @ S)`` and
        ``pre = x @ (W + M @ A_cat).T + b``.  Node count does not depend on
        the number of experts, and ``B = 0`` still gives an exact zero delta.
        """
        weights = self.gate.emit_weights(tape, domain_node)
        spread = np.kron(np.eye(len(self.experts)), np.full((1, self.rank), self.scaling))
        a_cat = tape.concat([tape.param(f"{e}.A") for e in self.experts], axis=0)
        b_cat = tape.concat([tape.param(f"{e}.B") for e in self.experts], axis=-1)
        rank_weights = tape.matmul(weights, tape.const(spread))
        base = self.base.name
        pre = _emit_merged_affine(
            tape, x, tape.param(f"{base}.W"), tape.param(f"{base}.b"),
            tape.mul(b_cat, rank_weights), a_cat)
        return _apply_activation(tape, self.base.activation, pre)
