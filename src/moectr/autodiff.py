"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small: a ``Tape`` records a static graph of
primitive ops once, at model-build time, and is then re-executed for every
batch.  Nothing is traced per step, so a run is fully determined by the
parameter values and the bound inputs.  All math is float64.

Gradients flow back through the node list in reverse order and accumulate
additively, so a parameter used in several places receives the sum of its
contributions.  Backward work is pruned to what the trainable parameters
need: a node needs a gradient iff a trainable parameter lies upstream of it,
and no VJP is computed for an operand that needs none.  So frozen weights,
embedding tables and the branches that only feed them cost nothing on the
way back, and only parameters currently flagged trainable are returned by
``Tape.backward``, which is what the phase-wise freeze logic relies on.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

__all__ = [
    "AutodiffError",
    "ShapeError",
    "Param",
    "ParamStore",
    "Tape",
    "grad_check",
    "rng_for",
]

# Clamp bound for probabilities inside the fused binary cross-entropy op.
BCE_EPS = 1e-7


class AutodiffError(ValueError):
    """Raised for malformed graphs or bad bindings."""


class ShapeError(AutodiffError):
    """Raised when an op receives operands of incompatible shapes."""


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator derived from a base seed and a string key.

    The key is hashed with crc32 so the stream depends only on (seed, name),
    never on construction order.  Two models built with the same seed draw
    identical values for identically named parameters.
    """
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))])


@dataclass
class Param:
    name: str
    value: np.ndarray
    group: str
    trainable: bool = True


class ParamStore:
    """Named parameter tensors, each carrying exactly one group tag.

    Group tags are plain strings ("backbone", "gate", "expert(d,k,layer)").
    Trainable flags are toggled wholesale via predicates so that training
    phases can freeze and thaw entire groups atomically.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, group: str) -> str:
        if name in self._params:
            raise AutodiffError(f"duplicate parameter name {name!r}")
        if not group:
            raise AutodiffError(f"parameter {name!r} has no group tag")
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        self._params[name] = Param(name, arr, group)
        return name

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def get(self, name: str) -> np.ndarray:
        return self._params[name].value

    def set(self, name: str, value: np.ndarray) -> None:
        p = self._params[name]
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        if arr.shape != p.value.shape:
            raise ShapeError(
                f"parameter {name!r} has shape {p.value.shape}, got {arr.shape}"
            )
        p.value = arr

    def param_groups(self) -> list[tuple[str, str, bool]]:
        """(name, group, trainable) for every parameter, in insertion order."""
        return [(p.name, p.group, p.trainable) for p in self._params.values()]

    @staticmethod
    def _selector(groups) -> "callable":
        if callable(groups):
            return groups
        if isinstance(groups, str):
            groups = (groups,)
        wanted = tuple(groups)
        # A tag matches either exactly or by prefix, so "expert(0," selects
        # every replica and layer of domain 0's experts.
        return lambda g: any(g == w or g.startswith(w) for w in wanted)

    def set_trainable_only(self, groups) -> list[str]:
        """Mark exactly the parameters whose group matches; freeze the rest."""
        match = self._selector(groups)
        hit = []
        for p in self._params.values():
            p.trainable = bool(match(p.group))
            if p.trainable:
                hit.append(p.name)
        return hit

    def group_bytes(self, groups) -> bytes:
        """Canonical serialization of all parameters in the matched groups.

        Sorted by name; each record carries the name, shape and raw little
        endian values, so equal bytes mean bit-equal tensors.
        """
        match = self._selector(groups)
        chunks = []
        for name in sorted(self._params):
            p = self._params[name]
            if not match(p.group):
                continue
            arr = np.ascontiguousarray(p.value, dtype="<f8")
            head = f"{name}|{p.group}|{arr.shape}|".encode("utf-8")
            chunks.append(head + arr.tobytes())
        return b"".join(chunks)

    def group_checksum(self, groups) -> str:
        return hashlib.sha256(self.group_bytes(groups)).hexdigest()


@dataclass
class _Node:
    op: str
    args: tuple[int, ...]
    meta: dict = field(default_factory=dict)


class Tape:
    """A static Wengert list over a shared ``ParamStore``.

    Build the graph once with the op methods (each returns an integer node
    id), then call ``forward`` with a dict of input arrays and ``backward``
    from a scalar loss node.  A tape instance keeps the values of its last
    forward pass and is not safe to share across threads.
    """

    def __init__(self, store: ParamStore):
        self.store = store
        self.nodes: list[_Node] = []
        self._inputs: dict[str, int] = {}
        self._param_nodes: dict[str, int] = {}
        self._values: list[np.ndarray] | None = None
        self._need_key: tuple | None = None
        self._need: list[bool] = []

    # ---- graph construction -------------------------------------------

    def _push(self, op: str, args: tuple[int, ...], **meta) -> int:
        for a in args:
            if not (0 <= a < len(self.nodes)):
                raise AutodiffError(f"op {op!r} references unknown node {a}")
        self.nodes.append(_Node(op, args, meta))
        return len(self.nodes) - 1

    def input(self, name: str) -> int:
        """Placeholder bound at forward time; one node per name."""
        if name not in self._inputs:
            self._inputs[name] = self._push("input", (), name=name)
        return self._inputs[name]

    def param(self, name: str) -> int:
        """Reference a store parameter; reuses the node on repeat calls."""
        if name not in self.store:
            raise AutodiffError(f"unknown parameter {name!r}")
        if name not in self._param_nodes:
            self._param_nodes[name] = self._push("param", (), name=name)
        return self._param_nodes[name]

    def const(self, value) -> int:
        arr = np.asarray(value, dtype=np.float64)
        return self._push("const", (), value=arr)

    def matmul(self, a: int, b: int, transpose_b: bool = False) -> int:
        return self._push("matmul", (a, b), tb=transpose_b)

    def add(self, a: int, b: int) -> int:
        return self._push("add", (a, b))

    def mul(self, a: int, b: int) -> int:
        return self._push("mul", (a, b))

    def scale(self, a: int, c: float) -> int:
        return self._push("scale", (a,), c=float(c))

    def relu(self, a: int) -> int:
        return self._push("relu", (a,))

    def sigmoid(self, a: int) -> int:
        return self._push("sigmoid", (a,))

    def softmax(self, a: int) -> int:
        """Softmax along the last axis, max-shifted for stability."""
        return self._push("softmax", (a,))

    def concat(self, parts: list[int], axis: int = -1) -> int:
        """Join along the last axis (axis=-1) or along rows (axis=0)."""
        if axis not in (0, -1):
            raise AutodiffError("concat supports axis 0 or -1 only")
        if not parts:
            raise AutodiffError("concat of zero nodes")
        return self._push("concat", tuple(parts), axis=axis)

    def reduce_sum(self, a: int, axis: int | None = None) -> int:
        """Sum to a scalar (axis=None) or over the last axis, keeping dims."""
        if axis not in (None, -1):
            raise AutodiffError("reduce_sum supports axis None or -1 only")
        return self._push("reduce_sum", (a,), axis=axis)

    def reduce_mean(self, a: int) -> int:
        return self._push("reduce_mean", (a,))

    def gather(self, table: int, idx: int) -> int:
        """Rows of ``table`` selected by an integer index array."""
        return self._push("gather", (table, idx))

    def bce(self, p: int, y: int) -> int:
        """Mean binary cross-entropy of probabilities against 0/1 labels.

        Probabilities are clamped to [BCE_EPS, 1-BCE_EPS]; the gradient is
        exactly zero where the clamp is active.  Labels are treated as
        constants.
        """
        return self._push("bce", (p, y))

    # ---- execution ------------------------------------------------------

    def _fail_shape(self, nid: int, node: _Node, shapes) -> None:
        raise ShapeError(f"node {nid} ({node.op}): incompatible shapes {shapes}")

    def forward(self, inputs: dict[str, np.ndarray], output: int | None = None) -> np.ndarray:
        """Execute nodes 0..output and return the output value.

        Inputs for nodes beyond ``output`` need not be bound.
        """
        if output is None:
            output = len(self.nodes) - 1
        if not (0 <= output < len(self.nodes)):
            raise AutodiffError(f"output node {output} out of range")
        vals: list = [None] * (output + 1)
        dt = np.float64
        for nid in range(output + 1):
            node = self.nodes[nid]
            op = node.op
            if op == "input":
                name = node.meta["name"]
                if name not in inputs:
                    raise AutodiffError(f"input {name!r} not bound")
                arr = np.asarray(inputs[name])
                if not np.issubdtype(arr.dtype, np.integer):
                    arr = arr.astype(dt, copy=False)
                vals[nid] = arr
                continue
            if op == "param":
                vals[nid] = self.store.get(node.meta["name"])
                continue
            if op == "const":
                vals[nid] = node.meta["value"]
                continue
            a = vals[node.args[0]]
            if op == "matmul":
                b = vals[node.args[1]]
                bm = b.T if node.meta["tb"] else b
                if a.ndim != 2 or bm.ndim != 2 or a.shape[1] != bm.shape[0]:
                    self._fail_shape(nid, node, (a.shape, b.shape))
                vals[nid] = a @ bm
            elif op == "add":
                b = vals[node.args[1]]
                try:
                    vals[nid] = a + b
                except ValueError:
                    self._fail_shape(nid, node, (a.shape, b.shape))
            elif op == "mul":
                b = vals[node.args[1]]
                try:
                    vals[nid] = a * b
                except ValueError:
                    self._fail_shape(nid, node, (a.shape, b.shape))
            elif op == "scale":
                vals[nid] = a * node.meta["c"]
            elif op == "relu":
                vals[nid] = np.maximum(a, 0.0)
            elif op == "sigmoid":
                vals[nid] = expit(a)
            elif op == "softmax":
                shifted = a - a.max(axis=-1, keepdims=True)
                e = np.exp(shifted)
                vals[nid] = e / e.sum(axis=-1, keepdims=True)
            elif op == "concat":
                parts = [vals[i] for i in node.args]
                try:
                    vals[nid] = np.concatenate(parts, axis=node.meta["axis"])
                except ValueError:
                    self._fail_shape(nid, node, [p.shape for p in parts])
            elif op == "reduce_sum":
                if node.meta["axis"] is None:
                    vals[nid] = np.asarray(a.sum(), dtype=dt)
                else:
                    vals[nid] = a.sum(axis=-1, keepdims=True)
            elif op == "reduce_mean":
                vals[nid] = np.asarray(a.mean(), dtype=dt)
            elif op == "gather":
                idx = vals[node.args[1]]
                if not np.issubdtype(np.asarray(idx).dtype, np.integer):
                    raise AutodiffError(f"node {nid} (gather): index array must be integer")
                idx = np.asarray(idx).reshape(-1)
                if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
                    raise AutodiffError(
                        f"node {nid} (gather): index out of range for table of {a.shape[0]} rows"
                    )
                vals[nid] = a[idx]
            elif op == "bce":
                y = vals[node.args[1]]
                p = np.clip(a, BCE_EPS, 1.0 - BCE_EPS)
                if p.shape != np.asarray(y).shape:
                    self._fail_shape(nid, node, (a.shape, np.asarray(y).shape))
                vals[nid] = np.asarray(
                    -(y * np.log(p) + (1.0 - y) * np.log1p(-p)).mean(), dtype=dt
                )
            else:  # pragma: no cover - guarded by construction
                raise AutodiffError(f"unknown op {op!r}")
        self._values = vals
        self._output = output
        return vals[output]

    @staticmethod
    def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Sum a broadcast gradient back down to the operand's shape."""
        while grad.ndim > len(shape):
            grad = grad.sum(axis=0)
        for ax, s in enumerate(shape):
            if s == 1 and grad.shape[ax] != 1:
                grad = grad.sum(axis=ax, keepdims=True)
        return grad.reshape(shape)

    def _needs_grad(self) -> list[bool]:
        """Per node, whether a trainable parameter lies upstream of it.

        Params need a gradient iff trainable, inputs and consts never, and
        any other node iff one of its operands does.  The mask is cached
        under the trainable flags of the tape's params (read afresh on every
        call, since they are set directly), so it is rebuilt only when they
        or the graph change.
        """
        store = self.store
        key = (len(self.nodes), tuple([store[n].trainable for n in self._param_nodes]))
        if key != self._need_key:
            need = [False] * len(self.nodes)
            for nid, node in enumerate(self.nodes):
                if node.op == "param":
                    need[nid] = store[node.meta["name"]].trainable
                else:
                    need[nid] = any(need[a] for a in node.args)
            self._need_key, self._need = key, need
        return self._need

    def backward(self, loss: int | None = None, seed: float = 1.0) -> dict[str, np.ndarray]:
        """Accumulate gradients from a scalar loss node.

        Returns gradients for the store's trainable parameters that are
        reachable from the loss; frozen or unreachable parameters are absent.
        Work that only feeds frozen tensors is skipped: a VJP runs only for
        operands with a trainable parameter upstream, and with none the
        result is ``{}`` at once.  Pruning must not reorder how a returned
        gradient accumulates, so it matches a backward with every tensor
        trainable bit for bit.  Must follow a ``forward`` that covered the
        loss node.
        """
        if self._values is None:
            raise AutodiffError("backward before forward")
        if loss is None:
            loss = self._output
        if loss > self._output:
            raise AutodiffError("loss node was not computed by the last forward")
        vals = self._values
        if np.asarray(vals[loss]).shape != ():
            raise AutodiffError(f"loss node {loss} is not scalar")
        need = self._needs_grad()
        if not need[loss]:
            return {}
        grads: list = [None] * (loss + 1)
        grads[loss] = np.asarray(seed, dtype=np.float64)

        def acc(nid: int, g: np.ndarray) -> None:
            # Gradients are never mutated in place, so views are safe to keep.
            if grads[nid] is None:
                grads[nid] = g
            else:
                grads[nid] = grads[nid] + g

        # Only operands on the mask ever receive a gradient, so a node with
        # none is off the mask or unreachable from the loss.  A unary node on
        # the mask has its operand on it too, and so has a gather, whose
        # integer indices never need a gradient; the other VJPs are guarded
        # per operand.
        for nid in range(loss, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            op = node.op
            if op in ("input", "param", "const"):
                continue
            a_id = node.args[0]
            a = vals[a_id]
            if op == "matmul":
                b_id = node.args[1]
                b = vals[b_id]
                if node.meta["tb"]:
                    if need[a_id]:
                        acc(a_id, g @ b)
                    if need[b_id]:
                        acc(b_id, g.T @ a)
                else:
                    if need[a_id]:
                        acc(a_id, g @ b.T)
                    if need[b_id]:
                        acc(b_id, a.T @ g)
            elif op == "add":
                b_id = node.args[1]
                if need[a_id]:
                    acc(a_id, self._unbroadcast(g, a.shape))
                if need[b_id]:
                    acc(b_id, self._unbroadcast(g, vals[b_id].shape))
            elif op == "mul":
                b_id = node.args[1]
                b = vals[b_id]
                if need[a_id]:
                    acc(a_id, self._unbroadcast(g * b, a.shape))
                if need[b_id]:
                    acc(b_id, self._unbroadcast(g * a, b.shape))
            elif op == "scale":
                acc(a_id, g * node.meta["c"])
            elif op == "relu":
                acc(a_id, g * (a > 0.0))
            elif op == "sigmoid":
                s = vals[nid]
                acc(a_id, g * s * (1.0 - s))
            elif op == "softmax":
                s = vals[nid]
                gs = g * s
                acc(a_id, gs - s * gs.sum(axis=-1, keepdims=True))
            elif op == "concat":
                axis = node.meta["axis"]
                off = 0
                for pid in node.args:
                    w = vals[pid].shape[axis]
                    if need[pid]:
                        acc(pid, g[off : off + w] if axis == 0 else g[..., off : off + w])
                    off += w
            elif op == "reduce_sum":
                # Scalar and keepdims cases both broadcast straight back.
                acc(a_id, np.broadcast_to(g, a.shape))
            elif op == "reduce_mean":
                acc(a_id, np.broadcast_to(g / a.size, a.shape))
            elif op == "gather":
                idx = np.asarray(vals[node.args[1]]).reshape(-1)
                gt = np.zeros_like(a)
                np.add.at(gt, idx, g)
                acc(a_id, gt)
            elif op == "bce" and need[a_id]:
                # Labels are treated as constants.
                y = vals[node.args[1]]
                p = np.clip(a, BCE_EPS, 1.0 - BCE_EPS)
                inside = (a > BCE_EPS) & (a < 1.0 - BCE_EPS)
                dp = (p - y) / (p * (1.0 - p)) / a.size
                acc(a_id, g * dp * inside)

        out: dict[str, np.ndarray] = {}
        for name, nid in self._param_nodes.items():
            if nid <= loss and grads[nid] is not None:
                out[name] = np.asarray(grads[nid])
        return out


def grad_check(f, theta: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(theta) -> (value, grad)`` must be a scalar function returning its
    analytic gradient alongside the value.  The error per coordinate is
    |analytic - numeric| / max(1, |numeric|); the max over coordinates is
    returned.
    """
    if not (1e-6 <= eps <= 1e-4):
        raise ValueError(f"eps {eps} outside [1e-6, 1e-4]")
    theta = np.asarray(theta, dtype=np.float64)
    val, grad = f(theta)
    if not np.isfinite(val):
        raise ValueError("function value is not finite at theta")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != theta shape {theta.shape}")
    flat = theta.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi, _ = f(theta)
        flat[i] = orig - eps
        lo, _ = f(theta)
        flat[i] = orig
        num = (hi - lo) / (2.0 * eps)
        if not np.isfinite(num):
            raise ValueError(f"non-finite central difference at coordinate {i}")
        rel = abs(grad.reshape(-1)[i] - num) / max(1.0, abs(num))
        worst = max(worst, rel)
    return worst
