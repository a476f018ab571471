"""CTR model assembly: feature schema, backbones, adapter wiring, checkpoints.

Three backbones share one skeleton: id embeddings feed an MLP tower whose
final one-unit head produces the deep logit.  ``wdl`` adds a linear
memorization term over raw ids, ``deepfm`` additionally adds the pairwise
interaction term computed from the same embeddings.  The probability is
always sigmoid(sum of logits).

Modes differ only in the tower and head layers: ``plain`` uses bare dense
layers, ``mlora`` wraps each in per-domain low-rank adapters of which a row
uses only its own domain's, and ``moe`` mixes all adapters of all domains
through a learned per-domain gate.  Embeddings, the wide tables, and the
interaction term always belong to the backbone.

A model owns one ``ParamStore`` plus a static tape per forward view:
``backbone`` (base weights only), ``expert:d:k`` (backbone plus exactly one
adapter, no gate), and ``mixture`` (the softmax-gated forward of ``moe``).
Training phases pick views; prediction uses ``predict_view(domain)``.  Hard
routing (``mlora``, or ``moe`` with ``gate_force_one_hot``) predicts domain
d through ``expert:d:0`` and has no mixture view.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import AutodiffError, ParamStore, Tape, rng_for
from .layers import DenseLayer, GateNet, LoRAAdapter, MoELayer

__all__ = [
    "ARCHS",
    "MODES",
    "FeatureSchema",
    "AdapterConfig",
    "CtrModel",
    "build_model",
    "save_checkpoint",
    "load_checkpoint",
]

ARCHS = ("mlp", "wdl", "deepfm")
MODES = ("plain", "mlora", "moe")
DEFAULT_HIDDEN = (64, 32)
EMBED_INIT_STD = 0.05


def _is_number(value, whole: bool = False) -> bool:
    """A real number, or with ``whole`` an integer; a bool is neither."""
    kind = numbers.Integral if whole else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _check(name: str, value, kind: str, ok, whole: bool = False) -> None:
    """Refuse ``value`` unless it is a number for which ``ok`` holds, naming the field."""
    if not (_is_number(value, whole) and ok(value)):
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_count(name: str, value) -> None:
    _check(name, value, "a positive integer", lambda v: v >= 1, whole=True)


def _check_seed(name: str, value) -> None:
    _check(name, value, "a non-negative integer", lambda v: v >= 0, whole=True)


def _check_positive(name: str, value) -> None:
    _check(name, value, "a finite positive number", lambda v: math.isfinite(v) and v > 0)


def _check_flag(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def _check_widths(hidden) -> tuple[int, ...]:
    """The tower widths as a tuple of ints, each a positive integer."""
    for width in hidden:
        _check_count("hidden width", width)
    return tuple(int(w) for w in hidden)


def _check_mode_experts(mode: str, experts_per_domain: int) -> None:
    if mode == "mlora" and experts_per_domain != 1:
        raise ValueError("experts_per_domain: mlora mode keeps exactly one adapter per "
                         f"domain, got {experts_per_domain!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Categorical feature fields with their cardinalities, plus domain count."""

    fields: tuple[tuple[str, int], ...]
    embedding_dim: int = 8
    n_domains: int = 1

    def __post_init__(self):
        if not self.fields:
            raise ValueError("schema needs at least one feature field")
        names = [n for n, _ in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names in schema")
        for n, c in self.fields:
            _check_count(f"cardinality of field {n!r}", c)
        _check_count("embedding_dim", self.embedding_dim)
        _check_count("n_domains", self.n_domains)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.fields)

    @property
    def input_dim(self) -> int:
        return len(self.fields) * self.embedding_dim


@dataclass(frozen=True)
class AdapterConfig:
    rank: int = 4
    alpha: float = 4.0
    experts_per_domain: int = 1
    gate_force_one_hot: bool = False

    def __post_init__(self):
        _check_count("rank", self.rank)
        _check_positive("alpha", self.alpha)
        _check_count("experts_per_domain", self.experts_per_domain)
        _check_flag("gate_force_one_hot", self.gate_force_one_hot)
        if self.gate_force_one_hot and self.experts_per_domain != 1:
            raise ValueError("gate_force_one_hot: one-hot gating needs one expert per domain")


class CtrModel:
    """A built CTR model: parameter store plus cached per-view tapes."""

    def __init__(self, schema: FeatureSchema, arch: str, mode: str,
                 adapter_cfg: AdapterConfig, hidden: tuple[int, ...], seed: int):
        if arch not in ARCHS:
            raise ValueError(f"unknown arch {arch!r}; use one of {ARCHS}")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; use one of {MODES}")
        _check_mode_experts(mode, adapter_cfg.experts_per_domain)
        _check_seed("seed", seed)
        self.schema = schema
        self.arch = arch
        self.mode = mode
        self.adapter_cfg = adapter_cfg
        self.hidden = _check_widths(hidden)
        self.seed = int(seed)
        self.store = ParamStore()
        self._tapes: dict[str, tuple[Tape, int, int]] = {}
        self._build()

    # ---- construction ---------------------------------------------------

    def _adapted(self) -> bool:
        return self.mode in ("mlora", "moe")

    @property
    def experts_per_domain(self) -> int:
        return self.adapter_cfg.experts_per_domain if self.mode == "moe" else 1

    def expert_keys(self) -> list[tuple[int, int]]:
        return [(d, k) for d in range(self.schema.n_domains)
                for k in range(self.experts_per_domain)]

    def _hard_routed(self) -> bool:
        """True when each row uses only its own domain's expert, with no gate."""
        return self.mode == "mlora" or (
            self.mode == "moe" and self.adapter_cfg.gate_force_one_hot)

    def _make_layer(self, name: str, d_in: int, d_out: int, activation: str):
        base = DenseLayer(self.store, name, d_in, d_out, activation, "backbone", self.seed)
        if not self._adapted():
            return base
        cfg = self.adapter_cfg
        experts = []
        for d, k in self.expert_keys():
            ad = LoRAAdapter(self.store, f"{name}.e{d}.{k}", d_in, d_out,
                             cfg.rank, cfg.alpha, f"expert({d},{k},{name})", self.seed)
            experts.append((d, k, ad))
        gate = None
        if not self._hard_routed():
            gate = GateNet(self.store, f"{name}.gate", self.schema.n_domains, len(experts))
        return MoELayer(base, experts, gate=gate, n_domains=self.schema.n_domains)

    def _build(self) -> None:
        sch = self.schema
        for fname, card in sch.fields:
            emb = rng_for(self.seed, f"emb.{fname}").normal(
                0.0, EMBED_INIT_STD, size=(card, sch.embedding_dim))
            self.store.add(f"emb.{fname}", emb, "backbone")
        if self.arch in ("wdl", "deepfm"):
            for fname, card in sch.fields:
                self.store.add(f"wide.{fname}", np.zeros((card, 1)), "backbone")
            self.store.add("wide.bias", np.zeros((1,)), "backbone")
        self.tower = []
        d_in = sch.input_dim
        for i, width in enumerate(self.hidden):
            self.tower.append(self._make_layer(f"tower.{i}", d_in, width, "relu"))
            d_in = width
        self.head = self._make_layer("head", d_in, 1, "identity")

    # ---- tape assembly --------------------------------------------------

    def _emit_layer(self, layer, tape: Tape, x: int, view: str) -> int:
        if not self._adapted():
            return layer.emit(tape, x)
        if view == "backbone":
            return layer.base.emit(tape, x)
        if view.startswith("expert:"):
            _, d, k = view.split(":")
            return layer.emit_single_expert(tape, x, int(d), int(k))
        return layer.emit(tape, x, tape.input("domain"))

    def tape(self, view: str) -> tuple[Tape, int, int]:
        """(tape, probability node, loss node) for a forward view.

        Views: "backbone", "mixture", or "expert:d:k".  Plain models only
        have the backbone view; "mixture" aliases to it for convenience.
        Hard-routed models have no mixture view.
        """
        if not self._adapted():
            view = "backbone"
        elif view == "mixture" and self._hard_routed():
            raise AutodiffError(
                f"hard-routed {self.mode} model has no mixture view; "
                "use predict_view(domain)")
        if view in self._tapes:
            return self._tapes[view]
        sch = self.schema
        tape = Tape(self.store)
        embs = []
        for fname, _ in sch.fields:
            embs.append(tape.gather(tape.param(f"emb.{fname}"), tape.input(f"ids.{fname}")))
        x = tape.concat(embs) if len(embs) > 1 else embs[0]
        h = x
        for layer in self.tower:
            h = self._emit_layer(layer, tape, h, view)
        logit = self._emit_layer(self.head, tape, h, view)
        if self.arch in ("wdl", "deepfm"):
            wide = None
            for fname, _ in sch.fields:
                w = tape.gather(tape.param(f"wide.{fname}"), tape.input(f"ids.{fname}"))
                wide = w if wide is None else tape.add(wide, w)
            wide = tape.add(wide, tape.param("wide.bias"))
            logit = tape.add(logit, wide)
        if self.arch == "deepfm":
            total = embs[0]
            for e in embs[1:]:
                total = tape.add(total, e)
            sq_of_sum = tape.mul(total, total)
            sum_of_sq = tape.mul(embs[0], embs[0])
            for e in embs[1:]:
                sum_of_sq = tape.add(sum_of_sq, tape.mul(e, e))
            diff = tape.add(sq_of_sum, tape.scale(sum_of_sq, -1.0))
            fm = tape.scale(tape.reduce_sum(diff, axis=-1), 0.5)
            logit = tape.add(logit, fm)
        p = tape.sigmoid(logit)
        loss = tape.bce(p, tape.input("y"))
        self._tapes[view] = (tape, p, loss)
        return self._tapes[view]

    def predict_view(self, domain: int | None = None) -> str:
        """The view that predicts rows of ``domain``."""
        if self.mode == "plain":
            return "backbone"
        if not self._hard_routed():
            return "mixture"
        if domain is None:
            raise ValueError("a hard-routed model predicts through its domain's expert; "
                             "pass the domain")
        return f"expert:{int(domain)}:0"

    # ---- inference -------------------------------------------------------

    def _validate_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != len(self.schema.fields):
            raise ValueError(
                f"ids must be (batch, {len(self.schema.fields)}), got {ids.shape}")
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError("ids must be integers")
        for f, (fname, card) in enumerate(self.schema.fields):
            col = ids[:, f]
            if col.size and (col.min() < 0 or col.max() >= card):
                bad = col[(col < 0) | (col >= card)][0]
                raise ValueError(f"feature {fname!r}: id {bad} out of range [0, {card})")
        return ids

    def bind_inputs(self, ids: np.ndarray, domain: int, y: np.ndarray | None = None) -> dict:
        inputs = {}
        for f, (fname, _) in enumerate(self.schema.fields):
            inputs[f"ids.{fname}"] = ids[:, f]
        if self._adapted():
            inputs["domain"] = np.array([domain])
        if y is not None:
            inputs["y"] = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        return inputs

    def predict(self, ids: np.ndarray, domain: int, view: str | None = None) -> np.ndarray:
        ids = self._validate_ids(ids)
        if not (0 <= domain < self.schema.n_domains):
            raise ValueError(
                f"domain index {domain} out of range [0, {self.schema.n_domains})")
        tape, p_node, _ = self.tape(view or self.predict_view(domain))
        p = tape.forward(self.bind_inputs(ids, domain), output=p_node)
        return p.reshape(-1)


def build_model(schema: FeatureSchema, arch: str, mode: str,
                adapter_cfg: AdapterConfig | None = None, seed: int = 0,
                hidden: tuple[int, ...] = DEFAULT_HIDDEN) -> CtrModel:
    """Deterministically construct a CTR model; same seed, same weights."""
    return CtrModel(schema, arch, mode, adapter_cfg or AdapterConfig(), hidden, seed)


# ---- checkpoints ----------------------------------------------------------

# Two gate options that format 1 records in its adapter section, and that no
# longer exist.  Readers of the format look both keys up (the benchmark's
# forward check among them), so every checkpoint still writes them, false,
# which also keeps its bytes what they were.
RETIRED_GATE_OPTIONS = {"gate_includes_backbone": False, "gate_input_conditioned": False}


def save_checkpoint(model: CtrModel, path) -> None:
    """Write a self-describing, bit-exact snapshot of the model."""
    manifest = {
        "format": "moectr-checkpoint",
        "version": 1,
        "schema": {
            "fields": [[n, c] for n, c in model.schema.fields],
            "embedding_dim": model.schema.embedding_dim,
            "n_domains": model.schema.n_domains,
        },
        "arch": model.arch,
        "mode": model.mode,
        "hidden": list(model.hidden),
        "seed": model.seed,
        "adapter": {**asdict(model.adapter_cfg), **RETIRED_GATE_OPTIONS},
        "params": [],
    }
    arrays = {}
    for i, (name, group, trainable) in enumerate(model.store.param_groups()):
        key = f"p{i:05d}"
        manifest["params"].append(
            {"name": name, "group": group, "trainable": trainable, "key": key})
        arrays[key] = model.store.get(name)
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> CtrModel:
    """Rebuild a model from a checkpoint; parameters round-trip bit-exactly."""
    with np.load(path) as z:
        try:
            manifest = json.loads(bytes(z["manifest"].tobytes()).decode("utf-8"))
        except KeyError:
            raise ValueError(f"{path}: not a model checkpoint (no manifest)")
        if manifest.get("format") != "moectr-checkpoint":
            raise ValueError(f"{path}: unknown checkpoint format")
        schema = FeatureSchema(
            fields=tuple((n, c) for n, c in manifest["schema"]["fields"]),
            embedding_dim=manifest["schema"]["embedding_dim"],
            n_domains=manifest["schema"]["n_domains"],
        )
        adapter = dict(manifest["adapter"])
        for key in RETIRED_GATE_OPTIONS:
            if adapter.pop(key, False) is not False:
                raise ValueError(f"{path}: adapter option {key} was removed; only "
                                 "checkpoints with it false can be loaded")
        model = CtrModel(schema, manifest["arch"], manifest["mode"], AdapterConfig(**adapter),
                         tuple(manifest["hidden"]), manifest["seed"])
        manifest_names = {rec["name"] for rec in manifest["params"]}
        if set(model.store.names()) != manifest_names:
            raise ValueError(f"{path}: parameter set does not match model config")
        for rec in manifest["params"]:
            model.store.set(rec["name"], z[rec["key"]])
            model.store[rec["name"]].trainable = bool(rec["trainable"])
    return model
