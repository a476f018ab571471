"""Datasets, CSV serialization, splits, and a synthetic multi-domain generator.

On-disk format is a UTF-8 CSV with header ``user_id,item_id,domain_id,label``
plus optional trailing context columns; all values are non-negative integers
and labels are 0/1.  In memory a ``Dataset`` keeps the id columns, labels,
and domains as flat numpy arrays in file order.

The generator plants a latent structure that domain-specific adapters can
actually exploit: users and items each belong to one of four hidden
clusters, and each domain scores a (user cluster, item cluster) pair through
its own table.  At divergence 0 every domain shares one table, so a single
global model is Bayes-optimal; at divergence 1 each domain's table is an
independent random draw.  Labels come from thresholding logistic-noised
scores at the quantile matching the target positive rate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .models import FeatureSchema, _check, _check_count, _check_positive, _check_seed, _is_number

__all__ = [
    "Batch",
    "Dataset",
    "SyntheticSpec",
    "load_csv",
    "write_csv",
    "split_dataset",
    "generate_synthetic",
    "write_synthetic",
    "batch_iter",
    "domain_batches",
]

BASE_COLUMNS = ("user_id", "item_id", "domain_id", "label")
# The default train/validation/test shares of every split.
DEFAULT_RATIOS = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class Batch:
    """Rows of one training step, as the dataset holds them; the tape casts labels to float64."""

    ids: np.ndarray      # (n, n_fields) int64
    labels: np.ndarray   # (n,) int64, 0 or 1


def _whole(values, column: str) -> np.ndarray:
    """``values`` as int64; a fractional or non-finite float is an error, not truncated."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        bad = ~np.isfinite(arr) | (arr != np.trunc(arr))
        if bad.any():
            raise ValueError(f"{column} holds {arr[bad][0]}, which is not a whole number")
    return arr.astype(np.int64, copy=False)


class Dataset:
    """Rows of (feature ids, label, domain) under a fixed schema."""

    def __init__(self, schema: FeatureSchema, ids: np.ndarray,
                 labels: np.ndarray, domains: np.ndarray):
        ids = np.asarray(ids)
        labels = _whole(labels, "label")
        domains = _whole(domains, "domain")
        if ids.ndim != 2 or ids.shape[1] != len(schema.fields):
            raise ValueError(
                f"ids must be (n, {len(schema.fields)}), got {ids.shape}")
        n = ids.shape[0]
        if n == 0:
            raise ValueError("dataset has no rows")
        if labels.shape != (n,) or domains.shape != (n,):
            raise ValueError("ids, labels and domains must have matching length")
        for f, (fname, card) in enumerate(schema.fields):
            col = _whole(ids[:, f], f"field {fname!r}")
            if col.min() < 0 or col.max() >= card:
                raise ValueError(f"field {fname!r} has ids outside [0, {card})")
        ids = ids.astype(np.int64, copy=False)
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if domains.min() < 0 or domains.max() >= schema.n_domains:
            raise ValueError(
                f"domain ids must lie in [0, {schema.n_domains})")
        self.schema = schema
        self.ids = ids
        self.labels = labels
        self.domains = domains

    def __len__(self) -> int:
        return self.ids.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, np.take(self.ids, idx, axis=0), self.labels[idx],
                       self.domains[idx])

    def rows_of_domain(self, domain: int) -> np.ndarray:
        return np.flatnonzero(self.domains == domain)

    def domain_counts(self) -> np.ndarray:
        return np.bincount(self.domains, minlength=self.schema.n_domains)

    def batch(self, indices) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        return Batch(np.take(self.ids, idx, axis=0), self.labels[idx])


def write_csv(ds: Dataset, path) -> None:
    """Serialize a dataset; the same dataset always yields identical bytes."""
    header = list(BASE_COLUMNS) + [n for n, _ in ds.schema.fields[2:]]
    cols = np.column_stack([ds.ids[:, :2], ds.domains, ds.labels, ds.ids[:, 2:]])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, cols, fmt="%d", delimiter=",", header=",".join(header), comments="")


def load_csv(path) -> Dataset:
    """Parse a dataset CSV; malformed rows are reported with line numbers.

    Field cardinalities and the domain count are inferred as max id + 1.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header[:4] != list(BASE_COLUMNS):
            raise ValueError(
                f"{path}: header must start with {','.join(BASE_COLUMNS)}")
        ctx_names = header[4:]
        n_cols = len(header)
        users, items, domains, labels = [], [], [], []
        ctx = [[] for _ in ctx_names]
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise ValueError(
                    f"{path}:{line_no}: expected {n_cols} columns, got {len(row)}")
            try:
                vals = [int(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-integer value in row")
            if any(v < 0 for v in vals):
                raise ValueError(f"{path}:{line_no}: negative value in row")
            if vals[3] not in (0, 1):
                raise ValueError(f"{path}:{line_no}: label must be 0 or 1, got {vals[3]}")
            users.append(vals[0])
            items.append(vals[1])
            domains.append(vals[2])
            labels.append(vals[3])
            for c in range(len(ctx_names)):
                ctx[c].append(vals[4 + c])
    if not users:
        raise ValueError(f"{path}: no data rows")
    cols = [np.asarray(users), np.asarray(items)] + [np.asarray(c) for c in ctx]
    fields = [("user_id", int(cols[0].max()) + 1), ("item_id", int(cols[1].max()) + 1)]
    fields += [(name, int(c.max()) + 1) for name, c in zip(ctx_names, cols[2:])]
    schema = FeatureSchema(tuple(fields), n_domains=int(max(domains)) + 1)
    return Dataset(schema, np.column_stack(cols), np.asarray(labels), np.asarray(domains))


def _allocate(n: int, ratios: tuple[float, ...]) -> list[int]:
    """Largest-remainder split of n rows; no split starves if n allows."""
    raw = [n * r for r in ratios]
    sizes = [int(np.floor(v)) for v in raw]
    rem = sorted(range(len(ratios)), key=lambda i: raw[i] - sizes[i], reverse=True)
    for i in range(n - sum(sizes)):
        sizes[rem[i % len(ratios)]] += 1
    # Guarantee presence in every split once the cell is big enough.
    if n >= len(ratios):
        for i, s in enumerate(sizes):
            if s == 0:
                donor = int(np.argmax(sizes))
                sizes[donor] -= 1
                sizes[i] += 1
    return sizes


def _check_ratios(ratios) -> None:
    """Refuse anything but three finite positive shares summing to 1."""
    if not (isinstance(ratios, (tuple, list)) and len(ratios) == 3
            and all(_is_number(r) and math.isfinite(r) and r > 0 for r in ratios)
            and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ValueError(f"ratios must be three positive numbers summing to 1, got {ratios}")


def split_dataset(ds: Dataset, ratios: tuple[float, float, float] = DEFAULT_RATIOS,
                  seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic stratified split over (domain, label) cells.

    Each cell is shuffled with its own stream and divided by largest
    remainder, so per-domain label rates carry over to every split and a
    domain with at least three rows per cell appears in all three.
    """
    _check_ratios(ratios)
    parts: list[list[np.ndarray]] = [[], [], []]
    for d in range(ds.schema.n_domains):
        for lab in (0, 1):
            cell = np.flatnonzero((ds.domains == d) & (ds.labels == lab))
            if cell.size == 0:
                continue
            rng = np.random.default_rng([seed, d, lab])
            cell = cell[rng.permutation(cell.size)]
            sizes = _allocate(cell.size, ratios)
            off = 0
            for s, size in enumerate(sizes):
                parts[s].append(cell[off : off + size])
                off += size
    out = []
    for chunks in parts:
        if not chunks or sum(c.size for c in chunks) == 0:
            raise ValueError("split produced an empty part; dataset too small")
        idx = np.sort(np.concatenate(chunks))
        out.append(ds.subset(idx))
    return tuple(out)


def batch_iter(ds: Dataset, batch_size: int, seed: int = 0, epoch: int = 0):
    """Yield batches covering every row exactly once.

    Rows come in a permutation determined by (seed, epoch).  The last batch
    may be short.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(ds)
    order = np.random.default_rng([seed, epoch]).permutation(n)
    for start in range(0, n, batch_size):
        yield ds.batch(order[start : start + batch_size])


def domain_batches(ds: Dataset, batch_size: int, seed: int = 0,
                   epoch: int = 0) -> list[tuple[int, np.ndarray]]:
    """Single-domain batches for one epoch, in a deterministic shuffled order.

    Each domain's rows are shuffled and chunked once per epoch, so every row
    appears exactly once and a domain gets batches in proportion to its size;
    a domain with no rows gets none.  The batches of all domains are then
    shuffled together.
    """
    per_domain: list[tuple[int, np.ndarray]] = []
    rng = np.random.default_rng([seed, epoch])
    for d in range(ds.schema.n_domains):
        rows = ds.rows_of_domain(d)
        if rows.size == 0:
            continue
        perm = rows[rng.permutation(rows.size)]
        for start in range(0, perm.size, batch_size):
            per_domain.append((d, perm[start : start + batch_size]))
    order = rng.permutation(len(per_domain))
    return [per_domain[i] for i in order]


# ---- synthetic generator ---------------------------------------------------

# Users fall into this many hidden clusters, and so do items.
_CLUSTERS = 4


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the clustered multi-domain generator."""

    n_domains: int = 4
    n_users: int = 1000
    n_items: int = 500
    rows_per_domain: int = 5000
    positive_rate: float = 0.5
    divergence: float = 0.5
    seed: int = 0
    noise_scale: float = 0.15

    def __post_init__(self):
        for name in ("n_domains", "n_users", "n_items", "rows_per_domain"):
            _check_count(name, getattr(self, name))
        if self.rows_per_domain > self.n_users * self.n_items:
            raise ValueError(
                f"rows_per_domain {self.rows_per_domain} exceeds the "
                f"{self.n_users * self.n_items} available user-item pairs")
        _check("positive_rate", self.positive_rate, "a number strictly between 0 and 1",
               lambda v: 0 < v < 1)
        _check("divergence", self.divergence, "a number in [0, 1]", lambda v: 0 <= v <= 1)
        _check_seed("seed", self.seed)
        _check_positive("noise_scale", self.noise_scale)


def _latents(spec: SyntheticSpec):
    rng = np.random.default_rng([spec.seed, 101])
    user_cluster = rng.integers(0, _CLUSTERS, size=spec.n_users)
    item_cluster = rng.integers(0, _CLUSTERS, size=spec.n_items)
    shared = rng.random((_CLUSTERS, _CLUSTERS))
    tables = []
    for d in range(spec.n_domains):
        own = np.random.default_rng([spec.seed, 211, d]).random(shared.shape)
        tables.append((1.0 - spec.divergence) * shared + spec.divergence * own)
    return user_cluster, item_cluster, tables


def _sample_pairs(spec: SyntheticSpec, domain: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (user, item) pairs for one domain, deterministic by seed.

    Each round draws twice the codes still missing (plus 16) and keeps, in
    draw order, the first occurrence of each code not taken yet, until the
    domain has its rows.
    """
    n = spec.rows_per_domain
    rng = np.random.default_rng([spec.seed, 307, domain])
    codes = np.empty(0, dtype=np.int64)
    while codes.size < n:
        draw = rng.integers(0, spec.n_users * spec.n_items, size=2 * (n - codes.size) + 16)
        draw = draw[np.sort(np.unique(draw, return_index=True)[1])]
        fresh = draw[~np.isin(draw, codes)]
        codes = np.concatenate([codes, fresh[: n - codes.size]])
    return codes // spec.n_items, codes % spec.n_items


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a multi-domain dataset; identical spec, identical rows."""
    user_cluster, item_cluster, tables = _latents(spec)
    all_users, all_items, all_domains, all_labels = [], [], [], []
    for d in range(spec.n_domains):
        users, items = _sample_pairs(spec, d)
        scores = tables[d][user_cluster[users], item_cluster[items]]
        noise_rng = np.random.default_rng([spec.seed, 401, d])
        noisy = scores + noise_rng.logistic(0.0, spec.noise_scale, size=scores.shape)
        # Threshold at the empirical quantile so the positive rate lands on
        # target regardless of the table's value range.
        tau = np.quantile(noisy, 1.0 - spec.positive_rate)
        labels = (noisy > tau).astype(np.int64)
        all_users.append(users)
        all_items.append(items)
        all_domains.append(np.full(users.shape, d, dtype=np.int64))
        all_labels.append(labels)
    schema = FeatureSchema(
        fields=(("user_id", spec.n_users), ("item_id", spec.n_items)),
        n_domains=spec.n_domains,
    )
    ids = np.column_stack([np.concatenate(all_users), np.concatenate(all_items)])
    return Dataset(schema, ids, np.concatenate(all_labels), np.concatenate(all_domains))


def write_synthetic(spec: SyntheticSpec, csv_path) -> Dataset:
    """Generate, write the CSV, and drop a sidecar recording the settings."""
    ds = generate_synthetic(spec)
    write_csv(ds, csv_path)
    sidecar = f"{csv_path}.spec.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ds
