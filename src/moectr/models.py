"""CTR model assembly: feature schema, backbones, adapter wiring, checkpoints.

Three backbones share one skeleton: id embeddings feed an MLP tower whose
final one-unit head produces the deep logit.  ``wdl`` adds a linear
memorization term over raw ids, ``deepfm`` additionally adds the pairwise
interaction term computed from the same embeddings.  The probability is
always sigmoid(sum of logits).

Every mode builds the same parameters: each tower and head layer carries
``experts_per_domain`` low-rank adapters per domain and a per-domain gate
over them, an exact no-op at init; embeddings, the wide tables, and the
interaction term belong to the backbone.  The mode picks only the phases
that train and the view that predicts: ``plain`` the backbone, ``mlora``
a row's own domain's adapter, ``moe`` every adapter mixed by the gate.

A model owns one ``ParamStore`` plus a static tape per forward view, and
``views()`` lists them, the same in every mode: ``backbone`` (base weights
only), ``expert:d:k`` (backbone plus exactly one adapter, no gate) for each
adapter, and ``mixture`` (the softmax-gated forward).  Training phases pick
views; prediction uses ``predict_view(domain)``: ``backbone``,
``expert:d:0`` or ``mixture`` by mode.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import AutodiffError, ParamStore, Tape, rng_for
from .layers import MoELayer

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
# Rows per block in ``CtrModel.predict``.  A forward-only pass holds a few
# (rows x width) float64 values at once, so scoring a whole domain in one pass
# takes memory that grows with the domain: 512 MB for one width-64 value at
# 1M rows.  Blocks of 2048 rows (8 training batches) hold 1 MiB per such
# value, half of a 2 MiB L2.  The steps that read no row run once per call,
# so a block adds only its row steps.  With single-threaded OpenBLAS on a
# 2-vCPU Xeon, one predict per domain of the 50k-row, 4-domain benchmark data
# through a trained moe model took 16.5 ms at 2048-row blocks, 16.7 ms at
# 1024 and 18.0 ms at 4096.
PREDICT_BLOCK_ROWS = 2048


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


def _check_widths(hidden) -> tuple[int, ...]:
    """The tower widths as a tuple of ints, each a positive integer."""
    for width in hidden:
        _check_count("hidden width", width)
    return tuple(int(w) for w in hidden)


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
    def input_dim(self) -> int:
        return len(self.fields) * self.embedding_dim


@dataclass(frozen=True)
class AdapterConfig:
    rank: int = 4
    alpha: float = 4.0
    experts_per_domain: int = 1

    def __post_init__(self):
        _check_count("rank", self.rank)
        _check_positive("alpha", self.alpha)
        _check_count("experts_per_domain", self.experts_per_domain)


def _check_mode(mode: str, adapter_cfg: AdapterConfig) -> None:
    """Refuse an unknown mode, and ``mlora`` with more than one adapter per domain."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; use one of {MODES}")
    if mode == "mlora" and adapter_cfg.experts_per_domain != 1:
        raise ValueError("experts_per_domain: mlora mode keeps exactly one adapter per "
                         f"domain, got {adapter_cfg.experts_per_domain!r}")


class CtrModel:
    """A built CTR model: parameter store plus cached per-view tapes."""

    def __init__(self, schema: FeatureSchema, arch: str, mode: str,
                 adapter_cfg: AdapterConfig, hidden: tuple[int, ...], seed: int):
        if arch not in ARCHS:
            raise ValueError(f"unknown arch {arch!r}; use one of {ARCHS}")
        _check_mode(mode, adapter_cfg)
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

    def expert_keys(self) -> list[tuple[int, int]]:
        """(domain, replica) of every adapter, in gate-column order."""
        return [(d, k) for d in range(self.schema.n_domains)
                for k in range(self.adapter_cfg.experts_per_domain)]

    def _make_layer(self, name: str, d_in: int, d_out: int, activation: str):
        cfg = self.adapter_cfg
        return MoELayer(self.store, name, d_in, d_out, activation, self.expert_keys(),
                        cfg.rank, cfg.alpha, self.schema.n_domains, self.seed)

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

    def _emit_layer(self, layer: MoELayer, tape: Tape, x: int, view: str) -> int:
        if view == "backbone":
            return layer.emit_backbone(tape, x)
        if view == "mixture":
            return layer.emit(tape, x, tape.input("domain"))
        _, d, k = view.split(":")
        return layer.emit_single_expert(tape, x, int(d), int(k))

    def views(self) -> list[str]:
        """The forward views, the names ``tape`` accepts; the same in every mode."""
        return ["backbone"] + [f"expert:{d}:{k}" for d, k in self.expert_keys()] + ["mixture"]

    def tape(self, view: str) -> tuple[Tape, int, int]:
        """(tape, probability node, loss node) for a forward view.

        The views are "backbone", one "expert:d:k" per adapter and
        "mixture".  Any other name raises ``AutodiffError`` naming the view
        and the mode.
        """
        if view in self._tapes:
            return self._tapes[view]
        if view not in self.views():
            raise AutodiffError(f"{self.mode} model has no view {view!r}; "
                                f"its views are {', '.join(self.views())}")
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

    def predict_view(self, domain: int) -> str:
        """The view that predicts rows of ``domain``."""
        if self.mode == "plain":
            return "backbone"
        if self.mode == "moe":
            return "mixture"
        return f"expert:{int(domain)}:0"

    # ---- inference -------------------------------------------------------

    def _validate_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != len(self.schema.fields):
            raise ValueError(
                f"ids must be (batch, {len(self.schema.fields)}), got {ids.shape}")
        return ids

    def bind_inputs(self, ids: np.ndarray, domain: int, y: np.ndarray | None = None) -> dict:
        inputs = {"domain": np.array([domain])}
        for f, (fname, _) in enumerate(self.schema.fields):
            inputs[f"ids.{fname}"] = ids[:, f]
        if y is not None:
            inputs["y"] = np.reshape(y, (-1, 1))
        return inputs

    def predict(self, ids: np.ndarray, domain: int, view: str | None = None) -> np.ndarray:
        """Click probabilities of the rows of ``ids``, all of ``domain``, as an (n,) array.

        The rows run through the view's tape (``predict_view(domain)`` by
        default) in blocks of ``PREDICT_BLOCK_ROWS``, so memory is bounded
        by one block whatever ``n``.  ``domain`` is bound once, so the steps
        that read no row (the gate, the merged weights) run once per call.
        A tail shorter than half a block joins the block before it.  A BLAS
        may pick its kernel by row count, and OpenBLAS rounds a matmul of up
        to about 150 rows differently, so blocks that never get that small
        keep the bits of one pass there.
        Ids that are not integers, or that lie outside their field's range,
        are refused in every block by the tape's gathers, with a
        ``ValueError`` naming the input ``ids.<field>``.
        """
        ids = self._validate_ids(ids)
        if not (_is_number(domain, whole=True) and 0 <= domain < self.schema.n_domains):
            raise ValueError(f"domain must be an integer in [0, {self.schema.n_domains}), "
                             f"got {domain!r}")
        tape, p_node, _ = self.tape(view or self.predict_view(domain))
        n = ids.shape[0]
        starts = list(range(0, n, PREDICT_BLOCK_ROWS))
        if len(starts) > 1 and n - starts[-1] < PREDICT_BLOCK_ROWS // 2:
            starts.pop()  # the last block takes a short tail
        spans = list(zip(starts, starts[1:] + [n]))
        inputs = self.bind_inputs(ids, domain)
        shared = {"domain": inputs.pop("domain")}
        blocks = ({name: col[start:end] for name, col in inputs.items()} for start, end in spans)
        out = np.empty(n)
        for (start, end), p in zip(spans, tape.forward_blocks(shared, blocks, p_node)):
            out[start:end] = p.reshape(-1)
        return out


def build_model(schema: FeatureSchema, arch: str, mode: str,
                adapter_cfg: AdapterConfig | None = None, seed: int = 0,
                hidden: tuple[int, ...] = DEFAULT_HIDDEN) -> CtrModel:
    """Deterministically construct a CTR model; same seed, same weights."""
    return CtrModel(schema, arch, mode, adapter_cfg or AdapterConfig(), hidden, seed)


# ---- checkpoints ----------------------------------------------------------

# Three gate options that format 1 records in its adapter section, and that no
# longer exist.  Readers of the format look all three keys up (the benchmark's
# forward check among them), so every checkpoint still writes them, false.
RETIRED_GATE_OPTIONS = {"gate_force_one_hot": False, "gate_includes_backbone": False,
                        "gate_input_conditioned": False}


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
    for i, (name, group) in enumerate(model.store.param_groups()):
        key = f"p{i:05d}"
        manifest["params"].append({"name": name, "group": group, "key": key})
        arrays[key] = model.store.get(name)
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> CtrModel:
    """Rebuild a model from a checkpoint; parameters round-trip bit-exactly.

    A parameter record's ``trainable`` key, written by older checkpoints, is
    ignored: the store keeps no such flag.
    """
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
        names = set(model.store.names())
        manifest_names = {rec["name"] for rec in manifest["params"]}
        if names != manifest_names:
            raise ValueError(f"{path}: parameter set does not match model config; missing "
                             f"{_first_few(names - manifest_names)}, unexpected "
                             f"{_first_few(manifest_names - names)}")
        for rec in manifest["params"]:
            if rec["key"] not in z.files:
                raise ValueError(f"{path}: no array for parameter {rec['name']!r}")
            model.store.set(rec["name"], z[rec["key"]])
    return model


def _first_few(names) -> str:
    """The first three of ``names`` sorted, then a count of the rest; or "none"."""
    names = sorted(names)
    return ", ".join(names[:3] + [f"{len(names) - 3} more"] * (len(names) > 3)) or "none"
