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
    """Rank AUC; ``None`` when only one label class is present.

    One sort: a tie group at sorted positions [start, end) holds the average
    1-based rank (start + end + 1) / 2, so the positives' rank sum is that
    times each group's positive count.  Below about 6e7 rows every term and
    partial sum is a multiple of 0.5 below 2**52, so the sum is exact in
    float64 and equal to the per-row rank sum in any order.
    """
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
    order = np.argsort(scores)
    ranked = scores[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], ranked.size]
    group_pos = np.add.reduceat(labels[order].astype(np.int64), starts)
    u = ((starts + ends + 1) / 2.0 * group_pos).sum() - pos * (pos + 1) / 2.0
    return float(u / (pos * neg))


def wauc(per_domain) -> float:
    """Weighted mean of per-domain AUCs.

    ``per_domain`` is a sequence of (auc_or_None, weight), the AUC in
    [0, 1] and the weight a row count or any finite non-negative real;
    degenerate entries (AUC ``None``) are excluded and the remaining
    weights are renormalized.  All-degenerate input is an error.
    """
    entries = [(a, float(n)) for a, n in per_domain]
    if not all(np.isfinite(n) and n >= 0 for _, n in entries):
        raise ValueError("domain weights must be finite and non-negative")
    bad = [a for a, _ in entries if a is not None and not 0.0 <= a <= 1.0]
    if bad:
        raise ValueError(f"each AUC must be None or a number in [0, 1], got {bad[0]!r}")
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
    same pair count once.  Reported per domain and over all domains pooled,
    from one sort of the (pair, domain) keys.
    """
    n_users = ds.schema.fields[0][1]
    n_items = ds.schema.fields[1][1]
    n_domains = ds.schema.n_domains
    grid = float(n_users) * float(n_items)
    codes = ds.ids[:, 0] * n_items + ds.ids[:, 1]
    keys = np.sort(codes * n_domains + ds.domains)
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    per_domain = np.bincount(keys % n_domains, minlength=n_domains).tolist()
    pairs = keys // n_domains
    overall = 1 + int(np.count_nonzero(pairs[1:] != pairs[:-1]))
    return SparsityReport(1.0 - overall / grid,
                          tuple(1.0 - c / grid for c in per_domain))


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


def evaluate(model: CtrModel, ds: Dataset, view: str | None = None) -> MetricsReport:
    """Score a dataset domain by domain and weight the AUCs by its row counts."""
    if ds.schema.n_domains != model.schema.n_domains:
        raise ValueError("dataset and model disagree on the number of domains")
    sp = sparsity(ds)
    counts = ds.domain_counts()
    per_auc: list[tuple[float | None, int]] = []
    notes: list[str] = []
    for d in range(ds.schema.n_domains):
        rows = ds.rows_of_domain(d)
        if rows.size == 0:
            per_auc.append((None, 0))
            notes.append(f"domain {d}: no rows in evaluation split")
            continue
        probs = model.predict(np.take(ds.ids, rows, axis=0), d, view=view)
        a = auc(ds.labels[rows], probs)
        if a is None:
            notes.append(f"domain {d}: single-class split, AUC undefined")
        per_auc.append((a, int(counts[d])))
    entries = [(a, float(n)) for a, n in per_auc]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value = wauc(entries)
    live_total = sum(w for (a, w) in entries if a is not None and w > 0)
    per_domain = []
    for d, (a, n) in enumerate(per_auc):
        w = n / live_total if a is not None and live_total else 0.0
        per_domain.append(DomainMetrics(d, n, a, w, sp.per_domain[d]))
    return MetricsReport(per_domain, value, sp.overall, notes)
