"""Unit-by-unit training: the backbone, then each expert, then the gates.

Phase 1 fits the shared backbone on the union of all domains.  Phase 2
freezes it and fits each domain's low-rank experts on that domain's rows
alone, through a bypass view where the gate and every other expert are
absent from the graph, so replicas of one domain differ only by their A-matrix
init and experts are trained independently, one after another.  Phase 3
freezes everything but the gate tables and fits the mixture weights on
shuffled single-domain batches that cover each domain's rows once an epoch.
Each phase runs on any model, since every mode builds the same parameters;
the mode picks only which run: ``plain`` phase 1 alone, ``mlora`` phases 1
and 2, ``moe`` all three.  What a mode skips stays at its no-op init.

The backbone, each expert and the gates are units, and one trainer runs
them all.  A unit names the tensors it trains, those whose group tag
starts with its prefix, once: its Adam state holds them, and the tape
differentiates exactly those.  The trainer hashes every tensor outside
them before and after, and aborts if a byte moved; phase 2 does the same
around all of its experts.  Each unit gets one tape, whose training arena
it releases when it ends, aborted or not, so training holds one unit's
arena at a time however many experts there are.  Early stopping watches
the weighted validation AUC with a fixed patience.

Every batch takes one fused Adam step: the unit's gradients are
concatenated into one flat buffer and the moments live in flat buffers
laid out once per unit, so a step is one fixed sequence of in-place numpy
calls however many tensors it updates.  The step is atomic: a non-finite
gradient is caught before any parameter, moment or step count moves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ParamStore, ShapeError
from .data import DEFAULT_RATIOS, Dataset, domain_batches, shuffled_batches, split_dataset
from .metrics import MetricsReport, auc, evaluate
from .models import (
    DEFAULT_HIDDEN,
    AdapterConfig,
    CtrModel,
    _check_count,
    _check_positive,
    _check_seed,
    build_model,
    save_checkpoint,
)

__all__ = [
    "TrainConfig",
    "PhaseReport",
    "PipelineResult",
    "NumericError",
    "AdamState",
    "adam_step",
    "run_phase1",
    "run_phase2",
    "run_phase3",
    "train_pipeline",
]


# Adam's betas and epsilon (Kingma & Ba, ICLR 2015), the same for every unit.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


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
    seed: int = 0
    patience: int = 2

    def __post_init__(self):
        for name in ("lr", "gate_lr"):
            _check_positive(name, getattr(self, name))
        for name in ("batch_size", "patience"):
            _check_count(name, getattr(self, name))
        if not (isinstance(self.epochs, (tuple, list)) and len(self.epochs) == 3):
            raise ValueError(f"epochs must be three counts, one per phase, got {self.epochs!r}")
        for e in self.epochs:
            _check_count("epochs", e)
        _check_seed("seed", self.seed)


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
        rec = {"record": "phase", **vars(self)}
        children = rec.pop("children")
        if children:
            rec["children"] = [c.to_record() for c in children]
        return rec


@dataclass
class PipelineResult:
    metrics: MetricsReport
    phases: list[PhaseReport]
    model: CtrModel


class AdamState:
    """Adam's moment estimates and step counter for the tensors ``names`` of ``store``.

    A unit's state is built when the unit starts, for the tensors it trains.
    ``_rows`` is a (4, total) block holding the flat gradient, ``m``, ``v``
    and the update, in which each name owns one slice of every row, in
    ``names`` order; ``m[name]`` and ``v[name]`` are reshaped views of its
    moment slices, zero until the first step.
    """

    def __init__(self, store: ParamStore, names):
        self.t = 0
        self.names = tuple(names)
        self._shapes = [store.get(n).shape for n in self.names]
        ends = np.cumsum([0] + [store.get(n).size for n in self.names])
        self._rows = tuple(np.zeros((4, ends[-1])))
        _, m, v, update = self._rows
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._updates: list[tuple[str, np.ndarray]] = []
        for n, shape, lo, hi in zip(self.names, self._shapes, ends[:-1], ends[1:]):
            self.m[n] = m[lo:hi].reshape(shape)
            self.v[n] = v[lo:hi].reshape(shape)
            self._updates.append((n, update[lo:hi].reshape(shape)))


def adam_step(store: ParamStore, grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> None:
    """One bias-corrected Adam update at rate ``lr`` of the tensors ``state`` steps, fused.

    The gradients must name exactly ``state.names``, in any order, or
    ``ValueError`` names both lists.  Adam is elementwise, so they are
    concatenated in the state's order and the whole update, the store's
    parameters included, runs in place as one fixed sequence of numpy calls
    that gives the bits of a per-tensor update.  Every step checks that
    each gradient has its parameter's shape, or raises ``ShapeError``
    naming the tensor, and a non-finite gradient raises ``NumericError``
    naming the first bad tensor.  All three checks come before anything is
    written: no parameter, moment or step count moves.
    """
    if set(grads) != set(state.names):
        raise ValueError(f"this Adam state steps {list(state.names)}, "
                         f"but the gradients name {list(grads)}")
    for n, shape in zip(state.names, state._shapes):
        if grads[n].shape != shape:
            raise ShapeError(f"gradient for {n!r} has shape {grads[n].shape}, "
                             f"its parameter {shape}")
    g, m, v, u = state._rows
    if state.names:
        np.concatenate([np.ravel(grads[n]) for n in state.names], out=g)
    if not np.isfinite(g).all():
        bad = next(n for n in grads if not np.isfinite(grads[n]).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}")
    state.t += 1
    t = state.t
    # m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*(g*g)
    np.multiply(m, _BETA1, out=m)
    np.add(m, np.multiply(g, 1.0 - _BETA1, out=u), out=m)
    np.multiply(v, _BETA2, out=v)
    np.multiply(g, g, out=u)
    np.add(v, np.multiply(u, 1.0 - _BETA2, out=u), out=v)
    # u = lr * m_hat / (sqrt(v_hat) + eps); g is free to hold the denominator
    np.divide(m, 1.0 - _BETA1 ** t, out=u)
    np.multiply(u, lr, out=u)
    np.divide(v, 1.0 - _BETA2 ** t, out=g)
    np.sqrt(g, out=g)
    np.add(g, _EPS, out=g)
    np.divide(u, g, out=u)
    for name, update in state._updates:
        np.subtract(store.get(name), update, out=store.get(name))


def _stop_early(history: list[float], patience: int) -> bool:
    """True when the last ``patience`` values failed to beat the best before them."""
    if len(history) <= patience:
        return False
    best_before = max(history[:-patience])
    return all(v <= best_before for v in history[-patience:])


def _frozen_groups(model: CtrModel, own: str) -> str:
    """The group tags that do not start with ``own``, sorted and comma-joined."""
    return ",".join(sorted({g for _, g in model.store.param_groups() if not g.startswith(own)}))


def _train_unit(model: CtrModel, cfg: TrainConfig, phase: int, unit: str, own: str,
                view: str, train: Dataset, batches, val_metric,
                frozen_groups: str = "") -> PhaseReport:
    """Train one unit, the tensors whose group tag starts with ``own``.

    Every tensor outside ``own`` is hashed before and after, and a moved
    byte aborts with ``NumericError``.  The unit gets an ``AdamState`` for
    its own tensors, whose names are the ``wrt`` of every backward, and
    steps once per ``(domain, rows)`` of ``batches(epoch)``, on
    ``train.batch(rows)``, through the one tape of ``view``, for at most the
    phase's epoch count, and releases that tape's training arena when it
    ends, also on an error; early stopping watches ``val_metric()``, which
    gives None when the unit has no validation rows to score.
    ``frozen_groups`` goes to the report: a phase names the groups it
    froze, an expert of phase 2 leaves it empty.
    """
    store = model.store
    outside = lambda g: not g.startswith(own)  # noqa: E731
    before = store.group_checksum(outside)
    tape, _, loss_node = model.tape(view)
    adam = AdamState(store, [n for n, g in store.param_groups() if not outside(g)])
    lr = cfg.gate_lr if phase == 3 else cfg.lr
    losses: list[float] = []
    waucs: list[float] = []
    stopped = False
    try:
        for epoch in range(cfg.epochs[phase - 1]):
            total, rows = 0.0, 0
            for domain, batch_rows in batches(epoch):
                batch = train.batch(batch_rows)
                inputs = model.bind_inputs(batch.ids, domain, batch.labels)
                loss = float(tape.forward(inputs, output=loss_node))
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite training loss in phase {phase}", phase)
                try:
                    adam_step(store, tape.backward(loss_node, adam.names), adam, lr)
                except NumericError as e:
                    raise NumericError(f"{e} in phase {phase}", phase)
                total += loss * batch.labels.size
                rows += batch.labels.size
            losses.append(total / max(rows, 1))
            score = val_metric()
            if score is not None:
                waucs.append(score)
                stopped = _stop_early(waucs, cfg.patience)
                if stopped:
                    break
    finally:
        tape.release()
    after = store.group_checksum(outside)
    if after != before:
        raise NumericError(f"phase {phase} modified frozen parameters: "
                           f"training {unit} modified other parameters", phase)
    return PhaseReport(phase, unit, len(losses), losses, waucs, stopped,
                       frozen_groups, before, after)


def _epochs_of(rows, domain: int, batch_size: int, key: int):
    """Batches of ``rows`` for each epoch, by ``shuffled_batches`` keyed ``[key, epoch]``."""
    return lambda epoch: [(domain, b) for b in shuffled_batches(
        rows, batch_size, np.random.default_rng([key, epoch]))]


def run_phase1(model: CtrModel, train: Dataset, val: Dataset,
               cfg: TrainConfig) -> PhaseReport:
    """Fit the backbone on all domains pooled; adapters and gates untouched."""
    frozen = _frozen_groups(model, "backbone")
    # Every training row; the backbone view ignores the domain.
    batches = _epochs_of(len(train), 0, cfg.batch_size, cfg.seed * 1000 + 1)
    return _train_unit(model, cfg, 1, "backbone", "backbone", "backbone", train, batches,
                       lambda: evaluate(model, val, view="backbone").wauc, frozen)


def _train_one_expert(model: CtrModel, d: int, k: int, train: Dataset,
                      val: Dataset, cfg: TrainConfig) -> PhaseReport:
    """Fit expert (d, k) on domain d's rows; every replica of d draws the same batches."""
    val_rows = val.rows_of_domain(d)
    val_labels = val.labels[val_rows]
    val_ids = np.take(val.ids, val_rows, axis=0)
    # AUC ranks positives against negatives: a split missing either class
    # can never be scored, so it is not predicted every epoch only to fail.
    scorable = 0 < val_labels.sum() < val_labels.size
    view = f"expert:{d}:{k}"

    def val_metric():
        if scorable:
            return auc(val_labels, model.predict(val_ids, d, view=view))

    batches = _epochs_of(train.rows_of_domain(d), d, cfg.batch_size, cfg.seed * 1000 + 20 + d)
    rep = _train_unit(model, cfg, 2, f"expert({d},{k})", f"expert({d},{k},", view,
                      train, batches, val_metric)
    if val_rows.size == 0:
        rep.warnings.append(f"domain {d}: no validation rows, no early stopping")
    elif not scorable:
        rep.warnings.append(f"domain {d}: single-class validation split, no early stopping")
    return rep


def run_phase2(model: CtrModel, train: Dataset, val: Dataset,
               cfg: TrainConfig) -> PhaseReport:
    """Fit every (domain, replica) expert on its own domain's rows.

    The backbone and gates stay frozen; each expert trains through the
    bypass view, so experts never see one another.
    """
    frozen = _frozen_groups(model, "expert(")
    outside = lambda g: not g.startswith("expert(")  # noqa: E731
    before = model.store.group_checksum(outside)
    empty = [(d, k) for d, k in model.expert_keys() if train.rows_of_domain(d).size == 0]
    children = [_train_one_expert(model, d, k, train, val, cfg)
                for d, k in model.expert_keys() if (d, k) not in empty]
    warnings_list = [f"domain {d}: no training rows, expert({d},{k}) left at initialization"
                     for d, k in empty] + [w for c in children for w in c.warnings]
    after = model.store.group_checksum(outside)
    if after != before:
        raise NumericError("phase 2 modified frozen parameters", 2)
    return PhaseReport(2, "experts", 0, [], [evaluate(model, val).wauc], False,
                       frozen, before, after, warnings_list, children)


def run_phase3(model: CtrModel, train: Dataset, val: Dataset,
               cfg: TrainConfig) -> PhaseReport:
    """Fit the gate tables through the mixture view; everything else frozen."""
    frozen = _frozen_groups(model, "gate")
    batches = lambda epoch: domain_batches(  # noqa: E731
        train, cfg.batch_size, seed=cfg.seed * 1000 + 3, epoch=epoch)
    return _train_unit(model, cfg, 3, "gates", "gate", "mixture", train, batches,
                       lambda: evaluate(model, val).wauc, frozen)


def train_pipeline(cfg: TrainConfig, dataset: Dataset, arch: str, mode: str,
                   adapter_cfg: AdapterConfig | None = None,
                   hidden: tuple[int, ...] = DEFAULT_HIDDEN,
                   ratios: tuple[float, float, float] = DEFAULT_RATIOS,
                   out_dir=None, embedding_dim: int | None = None) -> PipelineResult:
    """Split, build, run the mode's phases, and score the test split.

    ``plain`` runs phase 1 only; ``mlora`` adds per-domain expert fitting;
    ``moe`` also fits the gates.
    Checkpoints land in ``out_dir`` when given.  ``embedding_dim``
    overrides the schema's width, same backbone for every mode at a given
    seed.
    """
    schema = dataset.schema
    if embedding_dim is not None:
        schema = replace(schema, embedding_dim=embedding_dim)
    train, val, test = split_dataset(dataset, ratios, seed=cfg.seed)
    model = build_model(schema, arch, mode, adapter_cfg,
                        seed=cfg.seed, hidden=hidden)
    runners = {"plain": [run_phase1], "mlora": [run_phase1, run_phase2],
               "moe": [run_phase1, run_phase2, run_phase3]}[model.mode]
    phases: list[PhaseReport] = []
    for i, runner in enumerate(runners, start=1):
        phases.append(runner(model, train, val, cfg))
        if out_dir is not None:
            save_checkpoint(model, os.path.join(out_dir, f"phase{i}.npz"))
    metrics = evaluate(model, test)
    metrics.context = {"arch": arch, "mode": mode, "seed": cfg.seed}
    return PipelineResult(metrics, phases, model)
