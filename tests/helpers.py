"""Shared test utilities: the central-difference gradient check and its
harness for whole models, brute-force AUC, numpy oracles for the model
terms, the pair sampler and the generator's rule agreement, and a one-layer
forward on a fresh tape."""

import numpy as np

from moectr.autodiff import ParamStore, Tape
from moectr.data import _CLUSTERS, SyntheticSpec, _latents
from moectr.layers import MoELayer
from moectr.models import CtrModel


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


def composite_layer_grad_err() -> float:
    """``grad_check`` of one graph touching every layer type.

    A relu layer with two rank-2 experts mixed by a softmax gate, then a
    head in its backbone form, sigmoid and bce, every tensor drawn from one
    seed.
    """
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 3)) + 0.2
    y = (rng.random(6) > 0.5).astype(float).reshape(6, 1)
    layout = [
        ("l0.W", (4, 3)), ("l0.b", (4,)),
        ("l0.e0.0.A", (2, 3)), ("l0.e0.0.B", (4, 2)),
        ("l0.e1.0.A", (2, 3)), ("l0.e1.0.B", (4, 2)),
        ("l0.gate.logits", (2, 2)),
        ("head.W", (1, 4)), ("head.b", (1,)),
    ]
    sizes = [int(np.prod(s)) for _, s in layout]

    def f(theta):
        store = ParamStore()
        layer = MoELayer(store, "l0", 3, 4, "relu", [(0, 0), (1, 0)], rank=2, alpha=2.0,
                         n_domains=2, seed=0)
        head = MoELayer(store, "head", 4, 1, "identity", [(0, 0)], rank=2, alpha=2.0,
                        n_domains=2, seed=0)
        off = 0
        for (name, shape), size in zip(layout, sizes):
            store.set(name, theta[off : off + size].reshape(shape))
            off += size
        tape = Tape(store)
        h = layer.emit(tape, tape.input("x"), tape.input("domain"))
        p = tape.sigmoid(head.emit_backbone(tape, h))
        loss = tape.bce(p, tape.input("y"))
        v = tape.forward({"x": x, "domain": np.array([1]), "y": y}, output=loss)
        grads = tape.backward(loss, store.names())
        flat = [np.asarray(grads.get(n, np.zeros(s))).reshape(-1) for n, s in layout]
        return float(v), np.concatenate(flat)

    theta0 = rng.normal(size=sum(sizes)) * 0.4
    return grad_check(f, theta0, eps=1e-5)


def layer_forward(store: ParamStore, emit, x=None, domain: int | None = None) -> np.ndarray:
    """Emit one layer onto a fresh ``Tape`` over ``store`` and run its forward.

    ``emit(tape, x_node)`` returns the output node.  ``x``, a (batch, d_in)
    array, feeds the ``"x"`` input; ``domain`` feeds the (1,) ``"domain"``
    input that an emit reads with ``tape.input("domain")``.  An input the
    output does not read may be left out.
    """
    tape = Tape(store)
    inputs = {}
    if x is not None:
        inputs["x"] = np.asarray(x, dtype=np.float64)
    if domain is not None:
        inputs["domain"] = np.array([domain])
    return tape.forward(inputs, output=emit(tape, tape.input("x")))


def lora_delta(x, A, B, scaling: float) -> np.ndarray:
    """A low-rank adapter's delta on a batch: ``scaling * (x @ A.T) @ B.T``."""
    return scaling * (np.asarray(x) @ A.T) @ B.T


def fm_pairwise(vectors) -> float:
    """Sum of dot products over all unordered pairs of equal-length vectors.

    Computed with the half-of-square-minus-squares identity, the same
    arrangement the model tape uses.
    """
    vs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if len(vs) < 2:
        return 0.0
    total = np.sum(vs, axis=0)
    sq_sum = np.sum([v * v for v in vs], axis=0)
    return float(0.5 * (total * total - sq_sum).sum())


def wide_logit(ids: np.ndarray, tables: list[np.ndarray], bias: float) -> np.ndarray:
    """Linear memorization term: one learned scalar per (field, id), plus bias."""
    ids = np.asarray(ids)
    out = np.full(ids.shape[0], float(bias))
    for f, table in enumerate(tables):
        out += np.asarray(table).reshape(-1)[ids[:, f]]
    return out


def auc_bruteforce(labels, scores):
    """O(P*N) pairwise AUC: wins count 1, ties count half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for p in pos:
        wins += float((p > neg).sum()) + 0.5 * float((p == neg).sum())
    return wins / (pos.size * neg.size)


def sample_pairs_loop(spec: SyntheticSpec, domain: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``data._sample_pairs``: the same draws, taken one code at a time."""
    grid = spec.n_users * spec.n_items
    rng = np.random.default_rng([spec.seed, 307, domain])
    seen: set[int] = set()
    codes: list[int] = []
    while len(codes) < spec.rows_per_domain:
        draw = rng.integers(0, grid, size=2 * (spec.rows_per_domain - len(codes)) + 16)
        for c in draw:
            if c not in seen:
                seen.add(int(c))
                codes.append(int(c))
                if len(codes) == spec.rows_per_domain:
                    break
    arr = np.asarray(codes, dtype=np.int64)
    return arr // spec.n_items, arr % spec.n_items


def rule_agreement(spec: SyntheticSpec) -> float:
    """Mean pairwise agreement of the domains' noise-free labeling rules.

    The oracle for the generator's divergence dial: 1 at divergence 0, and
    lower as the domains' tables drift apart.

    Evaluated over every (user cluster, item cluster) combination weighted
    by its population, with each domain thresholding its own table at the
    quantile matching the target positive rate.
    """
    user_cluster, item_cluster, tables = _latents(spec)
    u_w = np.bincount(user_cluster, minlength=_CLUSTERS).astype(float)
    i_w = np.bincount(item_cluster, minlength=_CLUSTERS).astype(float)
    w = np.outer(u_w, i_w)
    w /= w.sum()
    rules = []
    for tab in tables:
        order = np.argsort(tab, axis=None)
        flat_w = w.reshape(-1)[order]
        cum = np.cumsum(flat_w)
        # Smallest threshold whose upper tail mass is the positive rate.
        cut = np.searchsorted(cum, 1.0 - spec.positive_rate)
        tau = tab.reshape(-1)[order][min(cut, tab.size - 1)]
        rules.append(tab > tau)
    if spec.n_domains == 1:
        return 1.0
    agree = []
    for a in range(spec.n_domains):
        for b in range(a + 1, spec.n_domains):
            agree.append(((rules[a] == rules[b]) * w).sum())
    return float(np.mean(agree))


def param_layout(model: CtrModel) -> list[tuple[str, tuple[int, ...]]]:
    return [(name, model.store.get(name).shape) for name in model.store.names()]


def flatten_params(model: CtrModel) -> np.ndarray:
    return np.concatenate(
        [model.store.get(name).reshape(-1) for name in model.store.names()]
    )


def assign_params(model: CtrModel, theta: np.ndarray) -> None:
    off = 0
    for name, shape in param_layout(model):
        size = int(np.prod(shape))
        model.store.set(name, theta[off : off + size].reshape(shape))
        off += size


def model_loss_fn(model: CtrModel, ids: np.ndarray, y: np.ndarray, domain: int,
                  view: str | None = None):
    """f(theta) -> (loss, flat grad) over every parameter of the model."""
    layout = param_layout(model)
    tape, _, loss_node = model.tape(view or model.predict_view(domain))
    inputs = model.bind_inputs(ids, domain, y)

    def f(theta):
        assign_params(model, theta)
        val = tape.forward(inputs, output=loss_node)
        grads = tape.backward(loss_node, model.store.names())
        flat = [np.asarray(grads.get(n, np.zeros(s))).reshape(-1) for n, s in layout]
        return float(val), np.concatenate(flat)

    return f


def relu_margin(model: CtrModel, ids: np.ndarray, y: np.ndarray, domain: int,
                view: str | None = None) -> float:
    """Smallest |pre-activation| feeding any relu in the view's tape.

    Finite-difference checks need this margin to dominate the probe step so
    no perturbation crosses a kink.
    """
    tape, _, loss_node = model.tape(view or model.predict_view(domain))
    inputs = model.bind_inputs(ids, domain, y)
    margin = np.inf
    for node in tape.nodes[: loss_node + 1]:
        if node.op == "relu":
            pre = tape.forward(inputs, output=node.args[0])
            if pre.size:
                margin = min(margin, float(np.abs(pre).min()))
    return margin


def sample_inputs(model: CtrModel, batch: int, seed: int, domain: int = 0,
                  view: str | None = None):
    """Draw ids/labels whose relu margins (at least 1e-3) keep central
    differences with a 1e-5 probe smooth."""
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt])
        ids = np.column_stack(
            [rng.integers(0, card, size=batch) for _, card in model.schema.fields]
        )
        y = (rng.random(batch) > 0.5).astype(float)
        if relu_margin(model, ids, y, domain, view) >= 1e-3:
            return ids, y
    raise AssertionError("could not sample inputs clear of relu kinks")
