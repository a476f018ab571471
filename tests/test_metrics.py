import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moectr
from helpers import auc_bruteforce
from moectr.data import Dataset, SyntheticSpec, generate_synthetic, split_dataset
from moectr.metrics import MetricsReport, auc, evaluate, sparsity, wauc
from moectr.models import AdapterConfig, FeatureSchema, build_model


def test_auc_perfect_and_tied():
    assert auc([1, 0], [0.9, 0.1]) == 1.0
    assert auc([1, 0], [0.5, 0.5]) == 0.5
    assert auc([0, 1], [0.9, 0.1]) == 0.0


def test_auc_average_rank_ties():
    assert auc([1, 1, 0, 0], [0.8, 0.8, 0.8, 0.1]) == 0.75


def test_auc_degenerate_returns_none():
    assert auc([1, 1, 1], [0.1, 0.2, 0.3]) is None
    assert auc([0, 0], [0.1, 0.2]) is None


def test_auc_input_validation():
    with pytest.raises(ValueError, match="0 or 1"):
        auc([0, 2], [0.1, 0.2])
    with pytest.raises(ValueError, match="finite"):
        auc([0, 1], [0.1, np.nan])
    with pytest.raises(ValueError, match="equal-length"):
        auc([0, 1, 1], [0.1, 0.2])


@pytest.mark.parametrize("seed", range(20))
def test_auc_matches_bruteforce_with_heavy_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    labels = rng.integers(0, 2, n)
    # Quantized scores force plenty of exact ties.
    scores = np.round(rng.random(n), 2)
    got = auc(labels, scores)
    want = auc_bruteforce(labels, scores)
    if want is None:
        assert got is None
    else:
        assert abs(got - want) < 1e-12


def test_auc_invariant_under_monotone_transform_and_label_flip():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, 100)
    labels[0], labels[1] = 0, 1
    scores = rng.normal(size=100)
    base = auc(labels, scores)
    assert abs(auc(labels, 3.0 * scores + 7.0) - base) < 1e-12
    assert abs(auc(1 - labels, scores) - (1.0 - base)) < 1e-12


def auc_rankdata(labels, scores):
    """The Mann-Whitney U from scipy's average ranks: the AUC's reference formula."""
    from scipy.stats import rankdata

    labels = np.asarray(labels)
    pos = int(labels.sum())
    neg = labels.size - pos
    ranks = rankdata(np.asarray(scores, dtype=np.float64), method="average")
    u = ranks[labels == 1].sum() - pos * (pos + 1) / 2.0
    return float(u / (pos * neg))


@pytest.mark.parametrize("label_dtype", [np.int64, bool, np.float64])
@pytest.mark.parametrize("seed", range(4))
def test_auc_equals_the_rankdata_formula_bit_for_bit(seed, label_dtype):
    rng = np.random.default_rng([seed, 17])
    for n in (2, 7, 300, 4_000, 50_000):
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        labels = labels.astype(label_dtype)
        # Few distinct values make long tie groups; signed zeros must tie too.
        scores = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
        zeros = rng.random(n) < 0.2
        scores[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        assert auc(labels, scores) == auc_rankdata(labels, scores)


def test_wauc_weighted_mean_example():
    assert abs(wauc([(0.8, 750), (0.6, 250)]) - 0.75) < 1e-12


def test_wauc_identity_against_direct_sum():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        aucs = rng.random(k)
        counts = rng.integers(1, 1000, k)
        want = float((aucs * counts / counts.sum()).sum())
        assert abs(wauc(list(zip(aucs, counts))) - want) < 1e-12


def test_wauc_renormalizes_around_degenerate_domains():
    with pytest.warns(RuntimeWarning, match="degenerate"):
        v = wauc([(0.9, 100), (None, 400), (0.7, 100)])
    assert abs(v - 0.8) < 1e-12


def test_wauc_keeps_fractional_weights():
    assert abs(wauc([(0.8, 0.75), (0.6, 0.25)]) - 0.75) < 1e-12
    assert abs(wauc([(0.9, 1.9), (0.5, 1.0)]) - 2.21 / 2.9) < 1e-12
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-negative"):
            wauc([(0.8, bad), (0.6, 1.0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5, -0.2])
def test_wauc_rejects_an_auc_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=rf"\[0, 1\].*got {bad!r}"):
        wauc([(bad, 10), (0.7, 10)])


def test_wauc_all_degenerate_raises():
    with pytest.raises(ValueError, match="degenerate"):
        wauc([(None, 10), (None, 5)])


def test_sparsity_small_grid():
    schema = FeatureSchema((("user_id", 2), ("item_id", 2)), n_domains=1)
    ds = Dataset(schema, np.array([[0, 1]]), np.array([1]), np.array([0]))
    rep = sparsity(ds)
    assert rep.overall == 0.75
    assert rep.per_domain == (0.75,)


def test_sparsity_ignores_duplicate_pairs():
    schema = FeatureSchema((("user_id", 2), ("item_id", 2)), n_domains=2)
    ids = np.array([[0, 1], [0, 1], [1, 1]])
    ds = Dataset(schema, ids, np.array([1, 0, 1]), np.array([0, 0, 1]))
    rep = sparsity(ds)
    assert rep.overall == 0.5
    assert rep.per_domain == (0.75, 0.75)


def sparsity_unique(ds):
    """Per-domain and pooled sparsity from one ``np.unique`` per set: the reference."""
    n_users, n_items = ds.schema.fields[0][1], ds.schema.fields[1][1]
    grid = float(n_users) * float(n_items)
    codes = ds.ids[:, 0].astype(np.int64) * n_items + ds.ids[:, 1]
    per = tuple(1.0 - np.unique(codes[ds.rows_of_domain(d)]).size / grid
                for d in range(ds.schema.n_domains))
    return 1.0 - np.unique(codes).size / grid, per


@pytest.mark.parametrize("seed", range(6))
def test_sparsity_equals_the_unique_formula_bit_for_bit(seed):
    rng = np.random.default_rng([seed, 29])
    n_users, n_items = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    n_domains = int(rng.integers(2, 6))
    schema = FeatureSchema((("user_id", n_users), ("item_id", n_items), ("ctx", 3)),
                           n_domains=n_domains)
    n = int(rng.integers(1, 3_000))
    # Small grids make repeated pairs, within and across domains; the last
    # domain holds no rows.
    ids = np.column_stack([rng.integers(0, n_users, n), rng.integers(0, n_items, n),
                           rng.integers(0, 3, n)])
    ds = Dataset(schema, ids, rng.integers(0, 2, n), rng.integers(0, n_domains - 1, n))
    rep = sparsity(ds)
    overall, per = sparsity_unique(ds)
    assert rep.overall == overall and rep.per_domain == per
    assert rep.per_domain[-1] == 1.0
    assert all(type(v) is float for v in (rep.overall, *rep.per_domain))


def test_scoring_imports_no_scipy_stats():
    """Scoring needs no ``scipy.stats``, a large import that setup would pay for."""
    src = str(Path(moectr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, moectr.cli, moectr.training, moectr.metrics\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_imports_no_scipy():
    """moectr runs on numpy alone: scipy is only the test suite's AUC oracle."""
    src = str(Path(moectr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, moectr.cli, moectr.training, moectr.metrics\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def make_eval_pair(seed=0):
    spec = SyntheticSpec(n_domains=3, n_users=120, n_items=80,
                         rows_per_domain=600, seed=seed)
    ds = generate_synthetic(spec)
    _, _, test = split_dataset(ds, seed=seed)
    model = build_model(ds.schema, "mlp", "plain", AdapterConfig(),
                        seed=seed, hidden=(8, 6))
    return model, test


def test_evaluate_report_structure():
    model, test = make_eval_pair()
    rep = evaluate(model, test)
    assert len(rep.per_domain) == 3
    live = [m for m in rep.per_domain if m.auc is not None]
    assert abs(sum(m.weight for m in live) - 1.0) < 1e-12
    assert 0.0 <= rep.wauc <= 1.0
    assert 0.0 <= rep.sparsity_overall <= 1.0


def test_evaluate_records_and_jsonl(tmp_path):
    model, test = make_eval_pair(1)
    rep = evaluate(model, test)
    rep.context = {"config_hash": "abc123", "seed": 1}
    recs = rep.to_records()
    assert len(recs) == 4
    assert all(r["config_hash"] == "abc123" and r["seed"] == 1 for r in recs)
    assert recs[-1]["record"] == "summary"
    path = tmp_path / "metrics.jsonl"
    rep.write_jsonl(path)
    lines = path.read_text().strip().split("\n")
    assert [json.loads(l)["record"] for l in lines] == ["domain"] * 3 + ["summary"]


def test_evaluate_handles_single_class_domain():
    schema = FeatureSchema((("user_id", 10), ("item_id", 10)), n_domains=2)
    rng = np.random.default_rng(0)
    ids = np.column_stack([rng.integers(0, 10, 40), rng.integers(0, 10, 40)])
    labels = np.concatenate([np.ones(20, dtype=int), rng.integers(0, 2, 20)])
    labels[20], labels[21] = 0, 1
    domains = np.repeat([0, 1], 20)
    ds = Dataset(schema, ids, labels, domains)
    model = build_model(schema, "mlp", "plain", seed=3, hidden=(6, 4))
    rep = evaluate(model, ds)
    assert rep.per_domain[0].auc is None
    assert rep.per_domain[0].weight == 0.0
    assert rep.per_domain[1].weight == 1.0
    assert any("single-class" in w for w in rep.warnings)


def test_evaluate_refuses_a_dataset_with_another_domain_count():
    model, test = make_eval_pair()
    schema = FeatureSchema(test.schema.fields, n_domains=4)
    other = Dataset(schema, test.ids, test.labels, test.domains)
    with pytest.raises(ValueError, match="disagree on the number of domains"):
        evaluate(model, other)
