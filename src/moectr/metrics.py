"""Ranking metrics and model evaluation over multi-domain test splits.

AUC is the Mann-Whitney rank statistic with average ranks on ties, i.e. the
probability a random positive outranks a random negative, counting ties as
half.  The summary number across domains is the count-weighted mean of the
per-domain AUCs; domains whose split holds only one label class cannot be
ranked and are dropped from the weighted mean, with their weight
renormalized away and a warning recorded.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .data import Dataset
from .models import CtrModel

__all__ = [
    "auc",
    "wauc",
    "sparsity",
    "SparsityReport",
    "DomainMetrics",
    "MetricsReport",
    "evaluate",
]


def auc(labels, scores) -> float | None:
    """Rank AUC; ``None`` when only one label class is present."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be equal-length vectors")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        return None
    ranks = rankdata(scores, method="average")
    u = ranks[labels == 1].sum() - pos * (pos + 1) / 2.0
    return float(u / (pos * neg))


def wauc(per_domain) -> float:
    """Weighted mean of per-domain AUCs.

    ``per_domain`` is a sequence of (auc_or_None, weight), the weight a row
    count or any finite non-negative real; degenerate entries (AUC ``None``)
    are excluded and the remaining weights are renormalized.  All-degenerate
    input is an error.
    """
    entries = [(a, float(n)) for a, n in per_domain]
    if not all(np.isfinite(n) and n >= 0 for _, n in entries):
        raise ValueError("domain weights must be finite and non-negative")
    live = [(a, n) for a, n in entries if a is not None and n > 0]
    if not live:
        raise ValueError("every domain is degenerate; weighted AUC undefined")
    dropped = len(entries) - len(live)
    if dropped:
        warnings.warn(
            f"{dropped} degenerate domain(s) excluded from weighted AUC",
            RuntimeWarning, stacklevel=2)
    total = float(sum(n for _, n in live))
    return float(sum(a * (n / total) for a, n in live))


@dataclass(frozen=True)
class SparsityReport:
    overall: float
    per_domain: tuple[float, ...]


def sparsity(ds: Dataset) -> SparsityReport:
    """Unobserved share of the user-item grid: 1 - distinct pairs / (U * I).

    The grid size comes from the schema cardinalities; duplicates of the
    same pair count once.  Reported per domain and over all domains pooled.
    """
    n_users = ds.schema.fields[0][1]
    n_items = ds.schema.fields[1][1]
    grid = float(n_users) * float(n_items)
    codes = ds.ids[:, 0].astype(np.int64) * n_items + ds.ids[:, 1]
    per = []
    for d in range(ds.schema.n_domains):
        rows = ds.rows_of_domain(d)
        per.append(1.0 - np.unique(codes[rows]).size / grid)
    overall = 1.0 - np.unique(codes).size / grid
    return SparsityReport(overall, tuple(per))


@dataclass
class DomainMetrics:
    domain: int
    n_rows: int
    auc: float | None
    weight: float
    sparsity: float


@dataclass
class MetricsReport:
    """Per-domain rows plus the weighted summary for one evaluation."""

    per_domain: list[DomainMetrics]
    wauc: float
    sparsity_overall: float
    warnings: list[str] = field(default_factory=list)
    context: dict = field(default_factory=dict)

    def to_records(self) -> list[dict]:
        recs = []
        for m in self.per_domain:
            recs.append({
                "record": "domain",
                "domain": m.domain,
                "rows": m.n_rows,
                "auc": m.auc,
                "weight": m.weight,
                "sparsity": m.sparsity,
                **self.context,
            })
        recs.append({
            "record": "summary",
            "wauc": self.wauc,
            "sparsity": self.sparsity_overall,
            "warnings": list(self.warnings),
            **self.context,
        })
        return recs

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.to_records():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def __str__(self) -> str:
        lines = []
        for m in self.per_domain:
            shown = "degenerate" if m.auc is None else f"{m.auc:.6f}"
            lines.append(
                f"domain {m.domain}: rows={m.n_rows} auc={shown} weight={m.weight:.4f}")
        lines.append(f"weighted auc: {self.wauc:.6f}  sparsity: {self.sparsity_overall:.4f}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def evaluate(model: CtrModel, ds: Dataset, weight_counts=None,
             view: str | None = None) -> MetricsReport:
    """Score a dataset domain by domain and weight the AUCs by row share.

    ``weight_counts`` overrides the per-domain weights (e.g. with train
    split counts); by default the evaluated split's own counts are used.
    """
    if ds.schema.n_domains != model.schema.n_domains:
        raise ValueError("dataset and model disagree on the number of domains")
    sp = sparsity(ds)
    counts = ds.domain_counts()
    if weight_counts is not None:
        weight_counts = np.asarray(weight_counts, dtype=np.float64)
        if weight_counts.shape != (ds.schema.n_domains,):
            raise ValueError("weight_counts must have one entry per domain")
    per_auc: list[tuple[float | None, int]] = []
    notes: list[str] = []
    for d in range(ds.schema.n_domains):
        rows = ds.rows_of_domain(d)
        if rows.size == 0:
            per_auc.append((None, 0))
            notes.append(f"domain {d}: no rows in evaluation split")
            continue
        probs = model.predict(ds.ids[rows], d, view=view)
        a = auc(ds.labels[rows], probs)
        if a is None:
            notes.append(f"domain {d}: single-class split, AUC undefined")
        per_auc.append((a, int(counts[d])))
    weights_src = weight_counts if weight_counts is not None else counts
    entries = [(a, float(weights_src[d])) for d, (a, _) in enumerate(per_auc)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value = wauc(entries)
    live_total = sum(w for (a, w) in entries if a is not None and w > 0)
    per_domain = []
    for d, (a, n) in enumerate(per_auc):
        w = float(weights_src[d]) / live_total if a is not None and live_total else 0.0
        per_domain.append(DomainMetrics(d, n, a, w, sp.per_domain[d]))
    return MetricsReport(per_domain, value, sp.overall, notes)
