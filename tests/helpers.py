"""Shared test utilities: FD harness for whole models, brute-force AUC,
numpy oracles for the model terms, and a one-layer forward on a fresh tape."""

import numpy as np

from moectr.autodiff import ParamStore, Tape
from moectr.models import CtrModel


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
        grads = tape.backward(loss_node)
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
