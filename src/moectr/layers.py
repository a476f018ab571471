"""The adapted layer: a backbone affine map with a bank of per-domain
low-rank experts and a per-domain gate over them.

A layer registers its parameters in a shared ``ParamStore`` under a group
tag ("backbone", "gate", or "expert(d,k,layer)") and emits its ops onto a
``Tape`` in one of three forms.  The backbone form is the bare affine map
``x @ W.T + b``.  The other two run as one affine map, ``x @ (W + M @ A).T +
b``: the experts (LoRA adapters, all of one rank and one ``alpha``) are
folded into the weight once per batch (LoRA's weight merge), so the batch
rows meet a single matmul.  The bypass form adds one expert alone
(``M = (alpha/rank) * B``); the gated form adds every expert, each ``B``
scaled per rank block by the domain's one softmax row
(``M = B_cat * (weights @ S)``, ``A`` = every expert's ``A`` stacked along
rows).
"""

from __future__ import annotations

import numpy as np

from .autodiff import AutodiffError, ParamStore, Tape, rng_for

__all__ = [
    "ACTIVATIONS",
    "MoELayer",
]

ACTIVATIONS = ("relu", "identity")

# Std-dev of the Gaussian init for adapter A matrices; B starts at zero so
# every adapter's delta is exactly zero until trained.
ADAPTER_INIT_STD = 0.02


def _emit_merged_affine(tape: Tape, x: int, w: int, b: int, m: int, a: int) -> int:
    """``x @ (w + m @ a).T + b``: a low-rank delta folded into the weight.

    ``m @ a`` and the merged weight are (d_out, d_in), so only one matmul
    reads the batch rows.  ``m = 0`` makes ``m @ a`` an exact zero, and the
    result then has the bits of the bare affine map.
    """
    w_eff = tape.add(w, tape.matmul(m, a))
    return tape.add(tape.matmul(x, w_eff, transpose_b=True), b)


class MoELayer:
    """One adapted layer: a backbone affine map, a bank of low-rank experts
    and a per-domain gate over them, plus an activation.

    The layer registers, in this order: the backbone ``{name}.W`` (d_out,
    d_in), Gaussian, and ``{name}.b`` (d_out,), zero, both tagged
    "backbone"; the experts in ``keys`` order, expert ``(d, k)`` (replica k
    of domain d) being ``{name}.e{d}.{k}`` with ``A`` (rank, d_in) Gaussian
    and ``B`` (d_out, rank) zero, both tagged ``expert(d,k,name)``, so its
    delta ``(alpha/rank) * B @ A`` is exactly zero until trained; and the
    gate table ``{name}.gate.logits`` (n_domains, n_experts), tagged "gate",
    zero, so every domain starts with a uniform mixture, its columns in
    ``keys`` order.  The backbone form uses neither experts nor gate; the
    bypass form uses one expert and not the gate (a per-domain adapter row);
    the mixture uses every expert and the gate.
    """

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int, activation: str,
                 keys: list[tuple[int, int]], rank: int, alpha: float, n_domains: int,
                 seed: int):
        if activation not in ACTIVATIONS:
            raise AutodiffError(f"unknown activation {activation!r}; use one of {ACTIVATIONS}")
        if not keys:
            raise AutodiffError("adapted layer needs at least one expert")
        if rank < 1:
            raise AutodiffError(f"adapter rank must be >= 1, got {rank}")
        self.name = name
        self.activation = activation
        self.rank = int(rank)
        self.scaling = float(alpha) / self.rank
        self.experts = [f"{name}.e{d}.{k}" for d, k in keys]
        w = rng_for(seed, f"{name}.W").normal(0.0, np.sqrt(2.0 / (d_in + d_out)),
                                              size=(d_out, d_in))
        store.add(f"{name}.W", w, "backbone")
        store.add(f"{name}.b", np.zeros(d_out), "backbone")
        for (d, k), expert in zip(keys, self.experts):
            a = rng_for(seed, f"{expert}.A").normal(0.0, ADAPTER_INIT_STD, size=(rank, d_in))
            store.add(f"{expert}.A", a, f"expert({d},{k},{name})")
            store.add(f"{expert}.B", np.zeros((d_out, rank)), f"expert({d},{k},{name})")
        store.add(f"{name}.gate.logits", np.zeros((n_domains, len(keys))), "gate")

    def _activate(self, tape: Tape, node: int) -> int:
        return tape.relu(node) if self.activation == "relu" else node

    def emit_backbone(self, tape: Tape, x: int) -> int:
        """Backbone form: ``x @ W.T + b``, no expert and no gate."""
        h = tape.matmul(x, tape.param(f"{self.name}.W"), transpose_b=True)
        return self._activate(tape, tape.add(h, tape.param(f"{self.name}.b")))

    def emit_single_expert(self, tape: Tape, x: int, domain: int, replica: int) -> int:
        """Bypass form: backbone plus one expert's delta, no gate at all.

        The expert is merged into the weight, ``W + (alpha/rank) * B @ A``,
        so a batch runs one matmul through the layer.
        """
        expert = f"{self.name}.e{domain}.{replica}"
        if expert not in self.experts:
            raise AutodiffError(f"no expert ({domain},{replica}) on layer {self.name!r}")
        pre = _emit_merged_affine(
            tape, x, tape.param(f"{self.name}.W"), tape.param(f"{self.name}.b"),
            tape.scale(tape.param(f"{expert}.B"), self.scaling), tape.param(f"{expert}.A"))
        return self._activate(tape, pre)

    def emit(self, tape: Tape, x: int, domain_node: int) -> int:
        """Backbone plus the gate-weighted sum of all expert deltas, fused.

        ``domain_node`` holds one domain index, shape (1,): a batch is of one
        domain, so the gate gives one row of weights for the batch, the
        softmax of the domain's row of ``{name}.gate.logits``.
        The bank's ``A``s are stacked along rows into ``A_cat`` and its
        ``B``s along columns into ``B_cat``.  The constant ``S`` (n_experts,
        n_experts * rank) holds ``alpha/rank`` across expert j's rank block
        in row j, so ``weights @ S`` scales every rank.  The bank is merged
        into the weight, ``M = B_cat * (weights @ S)`` and
        ``pre = x @ (W + M @ A_cat).T + b``.  Node count does not depend on
        the number of experts, and ``B = 0`` still gives an exact zero delta.
        """
        weights = tape.softmax(tape.gather(tape.param(f"{self.name}.gate.logits"), domain_node))
        spread = np.kron(np.eye(len(self.experts)), np.full((1, self.rank), self.scaling))
        a_cat = tape.concat([tape.param(f"{e}.A") for e in self.experts], axis=0)
        b_cat = tape.concat([tape.param(f"{e}.B") for e in self.experts], axis=-1)
        rank_weights = tape.matmul(weights, tape.const(spread))
        pre = _emit_merged_affine(
            tape, x, tape.param(f"{self.name}.W"), tape.param(f"{self.name}.b"),
            tape.mul(b_cat, rank_weights), a_cat)
        return self._activate(tape, pre)
