"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small: a ``Tape`` records a static graph of
primitive ops once, at model-build time, and is then re-executed for every
batch.  Nothing is traced per step, so a run is fully determined by the
parameter values and the bound inputs.  All math is float64: an input that
the graph reads only as a gather's index is bound as given, and every other
input is cast to float64 once, as it is bound.

Each output node is compiled once into a plan: one bound kernel per node it
depends on, with its operand slots.  A forward to a loss, a ``bce`` or a
full ``reduce_sum`` node, is a training forward.  It writes every value into
the tape's arena, one reused float64 buffer per node grown to the largest
row count seen (a smaller batch uses leading-row views), and keeps them for
a ``backward`` from that loss, whose plan writes each VJP into the arena as
well.  The arena lives until ``Tape.release`` drops it; a later training
forward grows it again.  Any other forward is forward-only, and runs
through ``Tape.forward_blocks``: the caller binds some inputs once (the
shared ones) and hands the rest over in blocks of rows.  The plan splits,
once per output and names of the block inputs, into the steps that read no
block input, which run once per call, and the row steps, which run once per
block.  A row value is dropped, or its buffer reused in place, after its
last reader in the block; a shared value, like a leaf, is never dropped or
written into while the call runs, and nothing is kept once it ends.  A
forward-only ``Tape.forward`` is one such block.  Whatever a call hands out
(outputs, losses, gradients) is its own array, never a view into the arena.

Gradients flow back in reverse node order and accumulate additively, so a
parameter used in several places receives the sum of its contributions.
``Tape.backward(loss, wrt)`` differentiates only the parameters named in
``wrt``: a node needs a gradient iff one of them lies upstream of it, and
the backward plan, compiled per loss and ``wrt``, holds no VJP for an
operand that needs none.  So every other weight, the embedding tables and
the branches that only feed them cost nothing on the way back, and only
names in ``wrt`` are returned.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AutodiffError",
    "ShapeError",
    "Param",
    "ParamStore",
    "Tape",
    "rng_for",
]

# Clamp bound for probabilities inside the fused binary cross-entropy op.
BCE_EPS = 1e-7


class AutodiffError(ValueError):
    """Raised for malformed graphs or bad bindings."""


class ShapeError(AutodiffError):
    """Raised for incompatible shapes: of op operands, a parameter or a gradient."""


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator derived from a base seed and a string key.

    The key is hashed with crc32 so the stream depends only on (seed, name),
    never on construction order.  Two models built with the same seed draw
    identical values for identically named parameters.
    """
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


@dataclass
class Param:
    name: str
    value: np.ndarray
    group: str


class ParamStore:
    """Named parameter tensors, each carrying exactly one group tag.

    Group tags are plain strings ("backbone", "gate", "expert(d,k,layer)").
    The store says nothing about what trains: the caller of
    ``Tape.backward`` names the tensors it differentiates.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, group: str) -> str:
        if name in self._params:
            raise AutodiffError(f"duplicate parameter name {name!r}")
        if not group:
            raise AutodiffError(f"parameter {name!r} has no group tag")
        arr = np.array(value, dtype=np.float64, order="C")  # the store's own copy; 0-d stays 0-d
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
        arr = np.array(value, dtype=np.float64, order="C")
        if arr.shape != p.value.shape:
            raise ShapeError(
                f"parameter {name!r} has shape {p.value.shape}, got {arr.shape}"
            )
        p.value = arr

    def param_groups(self) -> list[tuple[str, str]]:
        """(name, group) for every parameter, in insertion order."""
        return [(p.name, p.group) for p in self._params.values()]

    def group_bytes(self, groups) -> bytes:
        """Canonical serialization of all parameters in the matched groups.

        A tag matches by prefix, so "expert(0," selects every replica and
        layer of domain 0's experts; a tuple matches any of its prefixes,
        and a callable is a predicate on the tag.  Sorted by name; each
        record carries the name, shape and raw little endian values, so
        equal bytes mean bit-equal tensors.
        """
        match = groups if callable(groups) else (lambda g: g.startswith(groups))
        chunks = []
        for name in sorted(self._params):
            p = self._params[name]
            if not match(p.group):
                continue
            arr = np.require(p.value, "<f8", "C")
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


_F8 = np.dtype(np.float64)
_LEAVES = ("input", "param", "const")
# Ops whose output has the broadcast shape of their operands: a forward-only
# call may write their output into the buffer of an operand it reads last.
_ELEMENTWISE = ("add", "mul", "scale", "relu", "sigmoid", "softmax")


# ---- forward kernels: one per node ----------------------------------------
#
# ``_forward_kernel(nid, node)`` gives ``run(vals, out) -> value``.  ``out``
# is an arena view of the node's shape, the buffer of an operand read for
# the last time, or None (numpy allocates).  Each computes the expression
# in its comment with the same numpy calls in the same order however it is
# called, so all three give the same bits.


def _forward_kernel(nid: int, node: _Node, nodes: list[_Node]):
    op, args, m = node.op, node.args, node.meta
    a, b = args[0], args[-1]
    if op == "matmul":  # a @ (b.T if tb else b)
        tb = m["tb"]

        def matmul(v, out):
            x, w = v[a], v[b]
            if x.ndim != 2 or w.ndim != 2:
                raise ValueError("matmul needs 2-d operands")
            return np.matmul(x, w.T if tb else w, out=out)
        return matmul
    if op == "add":
        return lambda v, out: np.add(v[a], v[b], out=out)
    if op == "mul":
        return lambda v, out: np.multiply(v[a], v[b], out=out)
    if op == "scale":
        c = m["c"]
        return lambda v, out: np.multiply(v[a], c, out=out)
    if op == "relu":
        return lambda v, out: np.maximum(v[a], 0.0, out=out)
    if op == "sigmoid":  # 1 / (1 + exp(-a)); below a = -709, exp(-a) is inf and this 0
        def sigmoid(v, out):
            x = v[a]  # ``out`` made here: numpy returns a 0-d result as a scalar
            out = np.negative(x, out=np.empty(x.shape) if out is None else out)
            with np.errstate(over="ignore"):
                np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            return np.reciprocal(out, out=out)
        return sigmoid
    if op == "softmax":  # e = exp(a - max(a)); e / sum(e), along the last axis
        def softmax(v, out):
            x = v[a]
            out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
            np.exp(out, out=out)
            return np.divide(out, out.sum(axis=-1, keepdims=True), out=out)
        return softmax
    if op == "concat":
        axis = m["axis"]
        return lambda v, out: np.concatenate([v[p] for p in args], axis=axis, out=out)
    if op == "reduce_sum":
        if m["axis"] is None:
            return lambda v, out: (np.asarray(v[a].sum()) if out is None
                                   else np.sum(v[a], out=out))
        return lambda v, out: np.sum(v[a], axis=-1, keepdims=True, out=out)
    if op == "gather":  # table[idx]
        named = f" (input {nodes[b].meta['name']!r})" if nodes[b].op == "input" else ""

        def gather(v, out):
            table, idx = v[a], v[b]
            if idx.dtype.kind not in "iu":
                raise AutodiffError(f"node {nid} (gather): index array must be integer{named}")
            idx = idx.reshape(-1)
            if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
                raise AutodiffError(f"node {nid} (gather): index out of range for table "
                                    f"of {table.shape[0]} rows{named}")
            # The range is checked above; "clip" lets take write straight
            # into ``out`` instead of through a buffer of its own.
            return np.take(table, idx, axis=0, out=out, mode="clip")
        return gather
    if op == "bce":  # mean of -(y log p + (1 - y) log(1 - p)), p clamped
        def bce(v, out):
            y = v[b]
            p = np.clip(v[a], BCE_EPS, 1.0 - BCE_EPS)
            if p.shape != y.shape:
                raise ValueError("probabilities and labels differ in shape")
            loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p)).mean()
            if out is None:
                return np.asarray(loss, dtype=_F8)
            out[()] = loss
            return out
        return bce
    raise AutodiffError(f"unknown op {op!r}")  # pragma: no cover - guarded by construction


# ---- VJP kernels: one per (node, operand) edge ----------------------------
#
# ``_vjp(nid, node, k)`` gives ``(fn, specs)`` for the gradient that node
# ``nid`` sends to its k-th operand, or None when that operand gets none
# (bce labels).  It is asked only for operands that need a gradient, never
# for a gather's index, which the forward refuses as float64.
# ``fn(g, vals, bufs)`` returns the contribution; ``specs`` lists the
# float64 buffers it writes, each as the node whose value has the buffer's
# shape.  Contributions may be views of ``g`` or of their own buffers,
# which nothing overwrites until the next backward.


def _vjp(nid: int, node: _Node, k: int):
    op, args, m = node.op, node.args, node.meta
    x = args[k]
    if op == "matmul":
        a, b = args
        if m["tb"]:
            if k == 0:
                return (lambda g, v, o: np.matmul(g, v[b], out=o[0])), (a,)
            return (lambda g, v, o: np.matmul(g.T, v[a], out=o[0])), (b,)
        if k == 0:
            return (lambda g, v, o: np.matmul(g, v[b].T, out=o[0])), (a,)
        return (lambda g, v, o: np.matmul(v[a].T, g, out=o[0])), (b,)
    if op == "add":
        return (lambda g, v, o: Tape._unbroadcast(g, v[x].shape)), ()
    if op == "mul":
        other = args[1 - k]
        return (lambda g, v, o: Tape._unbroadcast(np.multiply(g, v[other], out=o[0]),
                                                  v[x].shape)), (nid,)
    if op == "scale":
        c = m["c"]
        return (lambda g, v, o: np.multiply(g, c, out=o[0])), (nid,)
    if op == "relu":  # g * (a > 0); a 0.0/1.0 mask gives the bits of a bool one
        return (lambda g, v, o: np.multiply(g, np.greater(v[x], 0.0, out=o[0]), out=o[0])), (nid,)
    if op == "sigmoid":  # g * s * (1 - s)
        def sigmoid(g, v, o):
            gs = np.multiply(g, v[nid], out=o[0])
            return np.multiply(gs, np.subtract(1.0, v[nid], out=o[1]), out=o[0])
        return sigmoid, (nid, nid)
    if op == "softmax":  # g*s - s * sum(g*s)
        def softmax(g, v, o):
            s = v[nid]
            gs = np.multiply(g, s, out=o[0])
            return np.subtract(gs, np.multiply(s, gs.sum(axis=-1, keepdims=True), out=o[1]),
                               out=o[1])
        return softmax, (nid, nid)
    if op == "concat":
        axis = m["axis"]

        def concat(g, v, o):
            off = sum(v[p].shape[axis] for p in args[:k])
            end = off + v[x].shape[axis]
            return g[off:end] if axis == 0 else g[..., off:end]
        return concat, ()
    if op == "reduce_sum":  # scalar and keepdims cases both broadcast back
        return (lambda g, v, o: np.broadcast_to(g, v[x].shape)), ()
    if op == "gather":
        idx = args[1]

        def gather(g, v, o):  # scatter-add into a zeroed table
            o[0].fill(0.0)
            np.add.at(o[0], v[idx].reshape(-1), g)
            return o[0]
        return gather, (x,)
    if op == "bce":
        if k == 1:  # labels are treated as constants
            return None
        y = args[1]

        def bce(g, v, o):
            a = v[x]
            p = np.clip(a, BCE_EPS, 1.0 - BCE_EPS)
            inside = (a > BCE_EPS) & (a < 1.0 - BCE_EPS)
            dp = (p - v[y]) / (p * (1.0 - p)) / a.size
            return g * dp * inside
        return bce, ()
    raise AutodiffError(f"unknown op {op!r}")  # pragma: no cover - guarded by construction


@dataclass
class _ForwardPlan:
    """Everything ``output`` depends on, in node order."""

    output: int
    inputs: list[tuple[int, str, np.dtype | None]]  # (node, name, dtype; None: as given)
    params: list[tuple[int, Param]]
    consts: list[tuple[int, np.ndarray]]
    steps: list[tuple[int, object]]  # (node, run)


@dataclass
class _BlockPlan:
    """A forward plan split for ``forward_blocks``, per names of the block inputs."""

    block_inputs: list[tuple[int, str, np.dtype | None]]
    shared: list[tuple[int, object]]  # steps that read no block input: once per call
    rows: list[tuple[int, object]]  # steps that do: once per block
    # Liveness, per row step: the row values it reads last (dropped after
    # it), and those of them whose buffer it may write into.
    frees: list[tuple[int, ...]]
    reuse: list[tuple[int, ...]]


@dataclass
class _BackwardPlan:
    """VJP edges on the needs-grad mask, in reverse node order."""

    key: tuple  # (loss, the names differentiated)
    # (node, operand position, operand, fn, specs, first contribution?)
    edges: list[tuple[int, int, int, object, tuple, bool]]
    params: list[tuple[str, int]]


class Tape:
    """A static Wengert list over a shared ``ParamStore``.

    Build the graph once with the op methods (each returns an integer node
    id), then call ``forward`` with a dict of input arrays (or
    ``forward_blocks`` to score rows in blocks) and ``backward`` from a
    loss node.  A tape keeps the values of its last training
    forward, in its arena, until the next forward of any kind, and the
    arena itself until ``release``; a forward-only call keeps nothing.  A
    tape is not safe to share across threads.
    """

    def __init__(self, store: ParamStore):
        self.store = store
        self.nodes: list[_Node] = []
        self._inputs: dict[str, int] = {}
        self._param_nodes: dict[str, int] = {}
        self._forward_plans: dict[int, _ForwardPlan] = {}
        self._block_plans: dict[tuple, _BlockPlan] = {}
        self._backward_plans: dict[tuple, _BackwardPlan] = {}
        # Training state: flat float64 buffers by slot, the arena views
        # bound per (plan, input shapes), and the last training forward's
        # (plan, values, input shapes).
        self._arena: dict[tuple, np.ndarray] = {}
        self._bound: dict[tuple, list] = {}
        self._train: tuple | None = None

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

    def _forward_plan(self, output: int) -> _ForwardPlan:
        """Compile, once per output node, the nodes it depends on."""
        plan = self._forward_plans.get(output)
        if plan is not None:
            return plan
        if not (0 <= output < len(self.nodes)):
            raise AutodiffError(f"output node {output} out of range")
        live = [False] * (output + 1)
        live[output] = True
        for nid in range(output, -1, -1):
            if live[nid]:
                for a in self.nodes[nid].args:
                    live[a] = True
        plan = _ForwardPlan(output, [], [], [], [])
        read = set()  # nodes read by a step
        values = set()  # nodes read other than as a gather's index
        for nid in range(output + 1):
            node = self.nodes[nid]
            if not live[nid]:
                continue
            if node.op == "input":
                plan.inputs.append((nid, node.meta["name"]))
            elif node.op == "param":
                plan.params.append((nid, self.store[node.meta["name"]]))
            elif node.op == "const":
                plan.consts.append((nid, node.meta["value"]))
            else:
                read.update(node.args)
                values.update(node.args[:1] if node.op == "gather" else node.args)
                plan.steps.append((nid, _forward_kernel(nid, node, self.nodes)))
        plan.inputs = [(nid, name, None if nid in read and nid not in values else _F8)
                       for nid, name in plan.inputs]
        self._forward_plans[output] = plan
        return plan

    def _block_plan(self, plan: _ForwardPlan, names: frozenset) -> _BlockPlan:
        """Split ``plan``, once per set of block input names, into shared and row steps.

        A row step reads a block input or another row step.  Liveness covers
        the row steps only: a shared value, like a leaf, lives for the call.
        """
        key = (plan.output, names)
        split = self._block_plans.get(key)
        if split is not None:
            return split
        split = _BlockPlan([i for i in plan.inputs if i[1] in names], [], [], [], [])
        row = {nid for nid, _, _ in split.block_inputs}
        for nid, run in plan.steps:
            if any(a in row for a in self.nodes[nid].args):
                row.add(nid)
                split.rows.append((nid, run))
            else:
                split.shared.append((nid, run))
        last: dict[int, int] = {}  # row value -> index of the row step that reads it last
        for i, (nid, _) in enumerate(split.rows):
            for a in self.nodes[nid].args:
                last[a] = i
        for i, (nid, _) in enumerate(split.rows):
            node = self.nodes[nid]
            # Block inputs belong to the caller: never freed or reused.
            dying = tuple(dict.fromkeys(
                a for a in node.args
                if last[a] == i and a in row and self.nodes[a].op != "input"))
            split.frees.append(dying)
            split.reuse.append(dying if node.op in _ELEMENTWISE else ())
        self._block_plans[key] = split
        return split

    def _shape_error(self, nid: int, vals: list) -> ShapeError:
        node = self.nodes[nid]
        shapes = [np.shape(vals[a]) for a in node.args]
        return ShapeError(f"node {nid} ({node.op}): incompatible shapes {shapes}")

    def _views(self, specs) -> list[np.ndarray]:
        """Float64 arena views for (slot, shape) specs, growing slots as needed.

        A slot is one flat buffer, so every shape it serves is a view of its
        leading elements: a batch with fewer rows uses the leading rows.
        """
        views = []
        for slot, shape in specs:
            size = math.prod(shape)
            flat = self._arena.get(slot)
            if flat is None or flat.size < size:
                if flat is not None:
                    self._bound.clear()  # views of the smaller buffer are stale
                flat = self._arena[slot] = np.empty(size)
            views.append(flat[:size].reshape(shape))
        return views

    @staticmethod
    def _values(plan: _ForwardPlan) -> list:
        """A value slot per node up to the output, with the plan's params and consts."""
        vals: list = [None] * (plan.output + 1)
        for nid, p in plan.params:
            vals[nid] = p.value  # read at every call: ``set`` replaces the array
        for nid, c in plan.consts:
            vals[nid] = c
        return vals

    @staticmethod
    def _bind(vals: list, inputs: dict, specs) -> None:
        for nid, name, dtype in specs:
            if name not in inputs:
                raise AutodiffError(f"input {name!r} not bound")
            vals[nid] = np.asarray(inputs[name], dtype=dtype)

    def forward(self, inputs: dict[str, np.ndarray], output: int) -> np.ndarray:
        """Execute the nodes ``output`` depends on and return its value.

        A forward to a loss, a ``bce`` or a full ``reduce_sum`` node, is a
        training forward: values are written into the arena and kept for
        ``backward``.  Any other forward, a 0-d one included, is
        forward-only: it is one block of ``forward_blocks``, with every
        input bound in the block, and keeps nothing.  Either kind ends the
        values of an earlier training forward.  The result is the caller's
        own array.  Inputs that ``output`` does not depend on need not be
        bound.  An input that the graph reads only as a gather's index is
        bound as given, and the gather refuses one that is not integer or
        out of its table's range, naming the input; every other input is
        cast to float64, so integer inputs never compute in integers.
        """
        plan = self._forward_plan(output)
        node = self.nodes[output]
        if not (node.op == "bce" or (node.op == "reduce_sum" and node.meta["axis"] is None)):
            return next(self.forward_blocks({}, [inputs], output))
        self._train = None
        vals = self._values(plan)
        self._bind(vals, inputs, plan.inputs)
        # Output shapes follow from the input shapes, so views are bound per
        # input signature; the first call of a signature allocates and
        # learns the shapes.
        sig = tuple(vals[nid].shape for nid, _, _ in plan.inputs)
        key = ("forward", output, sig)
        views = self._bound.get(key)
        try:
            for (nid, run), out in zip(plan.steps, views or [None] * len(plan.steps)):
                vals[nid] = run(vals, out)
        except AutodiffError:
            raise
        except ValueError as e:
            raise self._shape_error(nid, vals) from e
        if views is None:
            self._bound[key] = self._views(
                [(("value", nid), vals[nid].shape) for nid, _ in plan.steps])
        self._train = (plan, vals, sig)
        return vals[output].copy()

    def forward_blocks(self, shared: dict[str, np.ndarray], blocks, output: int):
        """Yield the value of ``output`` for each block of rows, forward-only.

        ``shared`` binds the inputs every block reads alike (a domain index,
        say); each dict of ``blocks`` binds the rest, the same names in
        every block.  The steps that read no block input run once, at the
        first block; the row steps run once per block, each row value
        dropped, or its buffer reused, after its last reader.  Inputs are
        bound and checked as by ``forward``.  Each value yielded is the
        caller's own array, and nothing is kept once the generator ends.
        Iterating it ends the values of an earlier training forward.
        """
        plan = self._forward_plan(output)
        self._train = None
        vals = self._values(plan)
        split = None
        for block in blocks:
            steps = []
            if split is None:
                names = frozenset(block).intersection(name for _, name, _ in plan.inputs)
                split = self._block_plan(plan, names)
                self._bind(vals, shared, [i for i in plan.inputs if i[1] not in names])
                steps = [(step, (), ()) for step in split.shared]
                # The output is the block's own array only if a row step makes it.
                copy = not split.rows or split.rows[-1][0] != output
            self._bind(vals, block, split.block_inputs)
            steps += zip(split.rows, split.frees, split.reuse)
            try:
                for (nid, run), frees, reuse in steps:
                    out = None
                    if reuse:
                        shape = np.broadcast_shapes(
                            *(vals[a].shape for a in self.nodes[nid].args))
                        out = next((vals[a] for a in reuse if vals[a].shape == shape), None)
                    vals[nid] = run(vals, out)
                    for a in frees:
                        vals[a] = None
            except AutodiffError:
                raise
            except ValueError as e:
                raise self._shape_error(nid, vals) from e
            yield vals[output].copy() if copy else vals[output]

    def release(self) -> None:
        """Drop the training arena, its bound views and the last training forward.

        Compiled plans stay.  ``backward`` then raises until the next
        training forward, which grows the arena again as on a fresh tape.
        """
        self._arena.clear()
        self._bound.clear()
        self._train = None

    @staticmethod
    def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Sum a broadcast gradient back down to the operand's shape."""
        while grad.ndim > len(shape):
            grad = grad.sum(axis=0)
        for ax, s in enumerate(shape):
            if s == 1 and grad.shape[ax] != 1:
                grad = grad.sum(axis=ax, keepdims=True)
        return grad.reshape(shape)

    def _backward_plan(self, loss: int, wrt) -> _BackwardPlan:
        """Compile, once per loss and ``wrt``, the VJP edges the loss reaches.

        A node needs a gradient iff a param named in ``wrt`` lies upstream
        of it; an edge into an operand that needs none is left out, and a
        node that receives no gradient sends none.  An operand's first
        contribution is kept as it is; later ones are added into its
        accumulator in this same order.
        """
        key = (loss, tuple(wrt))
        plan = self._backward_plans.get(key)
        if plan is None:
            wanted = set(key[1])
            need: list[bool] = []
            for node in self.nodes[:loss + 1]:
                need.append(node.meta["name"] in wanted if node.op == "param"
                            else any(need[a] for a in node.args))
            reached = [False] * (loss + 1)
            reached[loss] = need[loss]
            edges = []
            for nid in range(loss, -1, -1):
                node = self.nodes[nid]
                if not reached[nid] or node.op in _LEAVES:
                    continue
                for k, x in enumerate(node.args):
                    vjp = _vjp(nid, node, k) if need[x] else None
                    if vjp is not None:
                        edges.append((nid, k, x, *vjp, not reached[x]))
                        reached[x] = True
            params = [(name, nid) for name, nid in self._param_nodes.items()
                      if nid <= loss and reached[nid]]
            plan = self._backward_plans[key] = _BackwardPlan(key, edges, params)
        return plan

    def backward(self, loss: int, wrt) -> dict[str, np.ndarray]:
        """Gradients of ``loss``, the output of the last training forward, for ``wrt``.

        ``wrt`` names the parameters to differentiate; of them, those the
        loss reaches are returned, and any other name is absent.  Work that
        only feeds other tensors is skipped: a VJP runs only for operands
        with a name of ``wrt`` upstream, and with none the result is ``{}``
        at once.  Pruning must not reorder how a returned gradient
        accumulates, so it matches a backward over every parameter bit for
        bit.  Must follow the training forward to ``loss`` (a ``bce`` or
        full ``reduce_sum`` node), with no other forward in between; any
        other node is refused.  The gradients returned are the caller's
        own arrays.
        """
        if self._train is None:
            raise AutodiffError(
                "backward needs the values of a training forward (a forward to a "
                "scalar loss: bce or a full reduce_sum) and the last forward kept none")
        plan, vals, sig = self._train
        if loss != plan.output:
            raise AutodiffError(f"backward from node {loss}, but the last training "
                                f"forward computed node {plan.output}")
        bplan = self._backward_plan(loss, wrt)
        key = ("backward", bplan.key, sig)
        bound = self._bound.get(key)
        if bound is None:
            bound = []
            for nid, k, x, _, bufs, first in bplan.edges:
                views = self._views([(("vjp", nid, k, j), vals[ref].shape)
                                     for j, ref in enumerate(bufs)])
                acc = None if first else self._views([(("acc", x), vals[x].shape)])[0]
                bound.append((views, acc))
            self._bound[key] = bound
        grads: list = [None] * (loss + 1)
        grads[loss] = np.asarray(1.0, dtype=_F8)
        for (nid, _, x, fn, _, first), (bufs, acc) in zip(bplan.edges, bound):
            c = fn(grads[nid], vals, bufs)
            grads[x] = c if first else np.add(grads[x], c, out=acc)
        return {name: np.array(grads[nid]) for name, nid in bplan.params}
