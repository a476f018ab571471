"""Three-phase training: backbone first, experts per domain, then gates.

Phase 1 fits the shared backbone on the union of all domains.  Phase 2
freezes it and fits each domain's low-rank experts on that domain's rows
alone, through a bypass view where the gate and every other expert are
absent from the graph, so replicas of one domain differ only by their A-matrix
init and experts are trained independently, one after another.  Phase 3
freezes everything but the gate tables and fits the mixture weights on
single-domain batches drawn proportionally (or balanced) across domains.

Each phase checksums the groups it is supposed to leave alone before and
after, and aborts if a frozen byte moved; so does each expert of phase 2,
over everything but its own tensors.  Early stopping watches the weighted
validation AUC with a fixed patience.

Every batch takes one fused Adam step: the trainable gradients are
concatenated into one flat buffer and the moments live in flat buffers
laid out once per phase, so a step is one fixed sequence of in-place numpy
calls however many tensors it updates.  The step is atomic: a non-finite
gradient is caught before any parameter, moment or step count moves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ParamStore, Tape
from .data import Dataset, batch_iter, domain_batches, split_dataset
from .metrics import MetricsReport, auc, evaluate
from .models import (
    DEFAULT_HIDDEN,
    AdapterConfig,
    CtrModel,
    build_model,
    save_checkpoint,
)

__all__ = [
    "TrainConfig",
    "PhaseReport",
    "PipelineResult",
    "NumericError",
    "bce_loss",
    "AdamState",
    "adam_step",
    "run_phase1",
    "run_phase2",
    "run_phase3",
    "train_pipeline",
]


class NumericError(RuntimeError):
    """Non-finite loss or gradient; carries the phase where it happened."""

    def __init__(self, message: str, phase: int | None = None):
        super().__init__(message)
        self.phase = phase


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    gate_lr: float = 1e-2
    batch_size: int = 256
    epochs: tuple[int, int, int] = (5, 5, 5)
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    patience: int = 2
    balanced_phase3: bool = False

    def __post_init__(self):
        if self.lr <= 0 or self.gate_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if len(self.epochs) != 3 or any(e < 1 for e in self.epochs):
            raise ValueError("epochs must be three positive counts")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class PhaseReport:
    phase: int
    unit: str
    epochs_run: int
    train_loss: list[float]
    val_wauc: list[float]
    stopped_early: bool
    frozen_groups: str
    frozen_checksum_before: str
    frozen_checksum_after: str
    warnings: list[str] = field(default_factory=list)
    children: list["PhaseReport"] = field(default_factory=list)

    def to_record(self) -> dict:
        rec = {
            "record": "phase",
            "phase": self.phase,
            "unit": self.unit,
            "epochs_run": self.epochs_run,
            "train_loss": self.train_loss,
            "val_wauc": self.val_wauc,
            "stopped_early": self.stopped_early,
            "frozen_groups": self.frozen_groups,
            "frozen_checksum_before": self.frozen_checksum_before,
            "frozen_checksum_after": self.frozen_checksum_after,
            "warnings": self.warnings,
        }
        if self.children:
            rec["children"] = [c.to_record() for c in self.children]
        return rec


@dataclass
class PipelineResult:
    metrics: MetricsReport
    phases: list[PhaseReport]
    model: CtrModel


def bce_loss(p, y) -> float:
    """Mean binary cross-entropy by the tape's ``bce`` op (clamp ``BCE_EPS``)."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("predictions and labels must have the same shape")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(p).all():
        raise ValueError("predictions must be finite")
    tape = Tape(ParamStore())
    loss = tape.bce(tape.input("p"), tape.input("y"))
    return float(tape.forward({"p": p, "y": y}, output=loss))


class _FlatLayout:
    """Flat Adam buffers for one ordered tuple of trainable names.

    ``rows`` is a (4, total) block: the flat gradient, ``m``, ``v`` and
    the update.  Each name owns one slice of every row, in order; ``m``,
    ``v`` and ``updates`` hold its views, in its gradient's shape.  A new
    layout copies in the moments ``state`` already holds and starts the
    rest at zero; ``state`` sees none of it until a step succeeds.
    """

    def __init__(self, names: tuple[str, ...], grads: dict, state: "AdamState"):
        shapes = [np.shape(grads[n]) for n in names]
        ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
        self.names = names
        self.rows = tuple(np.zeros((4, int(ends[-1]))))
        _, m, v, update = self.rows
        self.m, self.v, self.updates = {}, {}, []
        for n, shape, lo, hi in zip(names, shapes, ends[:-1], ends[1:]):
            self.m[n] = m[lo:hi].reshape(shape)
            self.v[n] = v[lo:hi].reshape(shape)
            if n in state.m:
                self.m[n][...] = state.m[n]
                self.v[n][...] = state.v[n]
            self.updates.append((n, update[lo:hi].reshape(shape)))


class AdamState:
    """First/second moment estimates plus the shared step counter.

    The moments live in the flat buffers of the layout built for the last
    step's trainable names; ``m[name]`` and ``v[name]`` are reshaped views
    into them.  A name that drops out of a step keeps its views, and its
    values, into the block it was last stepped in.
    """

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._layout: _FlatLayout | None = None


def adam_step(store: ParamStore, grads: dict[str, np.ndarray], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected Adam update over the supplied gradients, fused.

    Parameters without a gradient entry stay put; frozen parameters never
    move even if a gradient is supplied.  Adam is elementwise, so the
    trainable gradients are concatenated in ``grads`` order and the whole
    update runs as one fixed sequence of in-place numpy calls over flat
    buffers, with each tensor's bits as a per-tensor update would give.
    The layout is rebuilt only when the trainable names differ from the
    last step's.  A non-finite gradient raises ``NumericError`` naming the
    first bad tensor before anything is written: no parameter, moment or
    step count moves.
    """
    names = tuple(n for n in grads if store[n].trainable)
    layout = state._layout
    if layout is None or layout.names != names:
        layout = _FlatLayout(names, grads, state)
    g, m, v, u = layout.rows
    if names:
        np.concatenate([np.ravel(grads[n]) for n in names], out=g)
    if not np.isfinite(g).all():
        bad = next(n for n in names if not np.isfinite(grads[n]).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}")
    state.t += 1
    t = state.t
    if layout is not state._layout:
        state._layout = layout
        state.m.update(layout.m)
        state.v.update(layout.v)
    # m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*(g*g)
    np.multiply(m, beta1, out=m)
    np.add(m, np.multiply(g, 1.0 - beta1, out=u), out=m)
    np.multiply(v, beta2, out=v)
    np.multiply(g, g, out=u)
    np.add(v, np.multiply(u, 1.0 - beta2, out=u), out=v)
    # u = lr * m_hat / (sqrt(v_hat) + eps); g is free to hold the denominator
    np.divide(m, 1.0 - beta1 ** t, out=u)
    np.multiply(u, lr, out=u)
    np.divide(v, 1.0 - beta2 ** t, out=g)
    np.sqrt(g, out=g)
    np.add(g, eps, out=g)
    np.divide(u, g, out=u)
    for name, update in layout.updates:
        store.set(name, store.get(name) - update)


def _stop_early(history: list[float], patience: int) -> bool:
    """True when the last ``patience`` values failed to beat the best before them."""
    if len(history) <= patience:
        return False
    best_before = max(history[:-patience])
    return all(v <= best_before for v in history[-patience:])


def _frozen_selector(trainable_groups) -> "callable":
    match = ParamStore._selector(trainable_groups)
    return lambda g: not match(g)


def _run_epochs(model: CtrModel, view: str | None, batches_per_epoch, max_epochs: int,
                val_metric, adam: AdamState, lr: float, cfg: TrainConfig,
                phase: int) -> tuple[list[float], list[float], bool]:
    """Shared epoch loop: step over batches, track loss and validation metric.

    ``view=None`` trains each batch through its domain's prediction view.
    """
    losses: list[float] = []
    waucs: list[float] = []
    for epoch in range(max_epochs):
        total, rows = 0.0, 0
        for domain, batch in batches_per_epoch(epoch):
            tape, _, loss_node = model.tape(view or model.predict_view(domain))
            inputs = model.bind_inputs(batch.ids, domain, batch.labels)
            loss = float(tape.forward(inputs, output=loss_node))
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss in phase {phase}", phase)
            grads = tape.backward(loss_node)
            try:
                adam_step(model.store, grads, adam, lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
            except NumericError as e:
                raise NumericError(f"{e} in phase {phase}", phase)
            n = batch.labels.size
            total += loss * n
            rows += n
        losses.append(total / max(rows, 1))
        score = val_metric()
        if score is not None:
            waucs.append(score)
            if _stop_early(waucs, cfg.patience):
                return losses, waucs, True
    return losses, waucs, False


def _checksummed(model: CtrModel, trainable_groups, phase: int, unit: str):
    frozen = _frozen_selector(trainable_groups)
    before = model.store.group_checksum(frozen)

    def finish(losses, waucs, stopped, warnings_list, children=None) -> PhaseReport:
        after = model.store.group_checksum(frozen)
        if after != before:
            raise NumericError(
                f"phase {phase} modified frozen parameters", phase)
        frozen_tags = sorted({g for _, g, t in model.store.param_groups() if not t})
        return PhaseReport(
            phase=phase, unit=unit, epochs_run=len(losses),
            train_loss=losses, val_wauc=waucs, stopped_early=stopped,
            frozen_groups=",".join(sorted(set(frozen_tags))),
            frozen_checksum_before=before, frozen_checksum_after=after,
            warnings=warnings_list, children=children or [])

    return finish


def run_phase1(model: CtrModel, train: Dataset, val: Dataset,
               cfg: TrainConfig) -> PhaseReport:
    """Fit the backbone on all domains pooled; adapters and gates untouched."""
    model.store.set_trainable_only("backbone")
    finish = _checksummed(model, "backbone", 1, "backbone")
    adam = AdamState()

    def batches(epoch):
        for b in batch_iter(train, cfg.batch_size, seed=cfg.seed * 1000 + 1,
                            shuffle=True, epoch=epoch):
            yield 0, b  # backbone view ignores the domain

    def val_metric():
        return evaluate(model, val, view="backbone").wauc

    losses, waucs, stopped = _run_epochs(
        model, "backbone", batches, cfg.epochs[0], val_metric, adam, cfg.lr, cfg, 1)
    return finish(losses, waucs, stopped, [])


def _train_one_expert(model: CtrModel, d: int, k: int, train: Dataset,
                      val: Dataset, cfg: TrainConfig) -> PhaseReport:
    rows = train.rows_of_domain(d)
    sub = train.subset(rows)
    val_rows = val.rows_of_domain(d)
    view = f"expert:{d}:{k}"
    warnings_list: list[str] = []
    adam = AdamState()
    others = _frozen_selector(f"expert({d},{k},")
    before = model.store.group_checksum(others)

    def batches(epoch):
        for b in batch_iter(sub, cfg.batch_size,
                            seed=cfg.seed * 1000 + 20 + d, shuffle=True, epoch=epoch):
            yield d, b

    def val_metric():
        if val_rows.size == 0:
            return None
        probs = model.predict(val.ids[val_rows], d, view=view)
        return auc(val.labels[val_rows], probs)

    if val_rows.size == 0:
        warnings_list.append(f"domain {d}: no validation rows, no early stopping")
    losses, waucs, stopped = _run_epochs(
        model, view, batches, cfg.epochs[1],
        val_metric, adam, cfg.lr, cfg, 2)
    after = model.store.group_checksum(others)
    if after != before:
        raise NumericError(f"training expert({d},{k}) modified other parameters", 2)
    return PhaseReport(
        phase=2, unit=f"expert({d},{k})", epochs_run=len(losses),
        train_loss=losses, val_wauc=[w for w in waucs if w is not None],
        stopped_early=stopped, frozen_groups="", frozen_checksum_before=before,
        frozen_checksum_after=after, warnings=warnings_list)


def run_phase2(model: CtrModel, train: Dataset, val: Dataset,
               cfg: TrainConfig) -> PhaseReport:
    """Fit every (domain, replica) expert on its own domain's rows.

    The backbone and gates stay frozen; each expert trains through the
    bypass view, so experts never see one another.
    """
    if model.mode not in ("mlora", "moe"):
        raise ValueError("per-domain expert training needs an adapted model")
    model.store.set_trainable_only("expert(")
    finish = _checksummed(model, "expert(", 2, "experts")
    warnings_list: list[str] = []
    jobs = []
    for d, k in model.expert_keys():
        if train.rows_of_domain(d).size == 0:
            warnings_list.append(
                f"domain {d}: no training rows, expert({d},{k}) left at initialization")
            continue
        jobs.append((d, k))
    children = [_train_one_expert(model, d, k, train, val, cfg) for d, k in jobs]
    for c in children:
        warnings_list.extend(c.warnings)
    return finish([], [evaluate(model, val).wauc], False, warnings_list, children)


def run_phase3(model: CtrModel, train: Dataset, val: Dataset,
               cfg: TrainConfig) -> PhaseReport:
    """Fit the gate tables through the prediction views; everything else frozen.

    A hard-routed ``moe`` model has no gate tables: its phase 3 steps through
    the expert views and moves nothing.
    """
    if model.mode != "moe":
        raise ValueError("gate training applies only to moe models")
    model.store.set_trainable_only("gate")
    finish = _checksummed(model, "gate", 3, "gates")
    adam = AdamState()

    def batches(epoch):
        for d, rows in domain_batches(train, cfg.batch_size,
                                      seed=cfg.seed * 1000 + 3, epoch=epoch,
                                      balanced=cfg.balanced_phase3):
            yield d, train.batch(rows)

    def val_metric():
        return evaluate(model, val).wauc

    losses, waucs, stopped = _run_epochs(
        model, None, batches, cfg.epochs[2], val_metric, adam,
        cfg.gate_lr, cfg, 3)
    return finish(losses, waucs, stopped, [])


def train_pipeline(cfg: TrainConfig, dataset: Dataset, arch: str, mode: str,
                   adapter_cfg: AdapterConfig | None = None,
                   hidden: tuple[int, ...] = DEFAULT_HIDDEN,
                   ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                   out_dir=None, embedding_dim: int | None = None) -> PipelineResult:
    """Split, build, run the mode's phases, and score the test split.

    plain runs phase 1 only; mlora adds per-domain expert fitting; moe runs
    all three phases.  Checkpoints land in ``out_dir`` when given.
    ``embedding_dim`` overrides the schema's width, same backbone for
    every mode at a given seed.
    """
    schema = dataset.schema
    if embedding_dim is not None:
        schema = replace(schema, embedding_dim=embedding_dim)
    train, val, test = split_dataset(dataset, ratios, seed=cfg.seed)
    model = build_model(schema, arch, mode, adapter_cfg,
                        seed=cfg.seed, hidden=hidden)
    runners = [run_phase1]
    if mode in ("mlora", "moe"):
        runners.append(run_phase2)
    if mode == "moe":
        runners.append(run_phase3)
    phases: list[PhaseReport] = []
    for i, runner in enumerate(runners, start=1):
        phases.append(runner(model, train, val, cfg))
        if out_dir is not None:
            save_checkpoint(model, os.path.join(out_dir, f"phase{i}.npz"))
    metrics = evaluate(model, test)
    metrics.context = {"arch": arch, "mode": mode, "seed": cfg.seed}
    return PipelineResult(metrics, phases, model)
