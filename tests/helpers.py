"""Shared test utilities: FD harness for whole models, brute-force AUC."""

import numpy as np

from moectr.models import CtrModel


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
    tape.forward(model.bind_inputs(ids, domain, y), output=loss_node)
    margin = np.inf
    for nid, node in enumerate(tape.nodes[: loss_node + 1]):
        if node.op == "relu":
            pre = tape._values[node.args[0]]
            if pre.size:
                margin = min(margin, float(np.abs(pre).min()))
    return margin


def sample_inputs(model: CtrModel, batch: int, seed: int, domain: int = 0,
                  min_margin: float = 1e-3, view: str | None = None):
    """Draw ids/labels whose relu margins keep central differences smooth."""
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt])
        ids = np.column_stack(
            [rng.integers(0, card, size=batch) for _, card in model.schema.fields]
        )
        y = (rng.random(batch) > 0.5).astype(float)
        if relu_margin(model, ids, y, domain, view) >= min_margin:
            return ids, y
    raise AssertionError("could not sample inputs clear of relu kinks")
