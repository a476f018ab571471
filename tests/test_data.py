import numpy as np
import pytest

from helpers import rule_agreement, sample_pairs_loop
from moectr.data import (
    Dataset,
    SyntheticSpec,
    batch_iter,
    domain_batches,
    generate_synthetic,
    load_csv,
    split_dataset,
    write_csv,
    write_synthetic,
)
from moectr.data import _sample_pairs
from moectr.models import FeatureSchema
from moectr.training import TrainConfig, train_pipeline


def small_ds(n=10, n_domains=2, seed=0):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema((("user_id", 20), ("item_id", 15)), n_domains=n_domains)
    ids = np.column_stack([rng.integers(0, 20, n), rng.integers(0, 15, n)])
    return Dataset(schema, ids, rng.integers(0, 2, n), rng.integers(0, n_domains, n))


def test_batch_iter_sizes_and_order():
    schema = FeatureSchema((("user_id", 10), ("item_id", 1)), n_domains=1)
    zeros = np.zeros(10, dtype=int)
    ds = Dataset(schema, np.column_stack([np.arange(10), zeros]), zeros, zeros)
    batches = list(batch_iter(ds, 4, seed=5))
    assert [len(b.labels) for b in batches] == [4, 4, 2]
    # Row i holds user i, so the users seen show each row exactly once.
    users = np.concatenate([b.ids[:, 0] for b in batches])
    np.testing.assert_array_equal(np.sort(users), np.arange(10))


def test_batch_iter_shuffle_deterministic_and_complete():
    ds = small_ds(23)
    a = np.concatenate([b.ids for b in batch_iter(ds, 5, seed=3, epoch=1)])
    b = np.concatenate([b.ids for b in batch_iter(ds, 5, seed=3, epoch=1)])
    c = np.concatenate([b.ids for b in batch_iter(ds, 5, seed=3, epoch=2)])
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(np.sort(a, axis=0), np.sort(ds.ids, axis=0))


def test_split_80_10_10_per_domain():
    rng = np.random.default_rng(1)
    schema = FeatureSchema((("user_id", 50), ("item_id", 50)), n_domains=3)
    n = 300
    ids = np.column_stack([rng.integers(0, 50, n), rng.integers(0, 50, n)])
    ds = Dataset(schema, ids, rng.integers(0, 2, n), np.repeat(np.arange(3), 100))
    tr, va, te = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
    for d in range(3):
        assert abs(len(tr.rows_of_domain(d)) - 80) <= 1
        assert abs(len(va.rows_of_domain(d)) - 10) <= 1
        assert abs(len(te.rows_of_domain(d)) - 10) <= 1
    assert len(tr) + len(va) + len(te) == n


def test_split_preserves_label_rates_and_determinism():
    spec = SyntheticSpec(n_domains=3, n_users=200, n_items=100,
                         rows_per_domain=400, positive_rate=0.3, seed=5)
    ds = generate_synthetic(spec)
    tr1 = split_dataset(ds, seed=7)
    tr2 = split_dataset(ds, seed=7)
    for a, b in zip(tr1, tr2):
        np.testing.assert_array_equal(a.ids, b.ids)
    tr, va, te = tr1
    for part in (tr, va, te):
        for d in range(3):
            rows = part.rows_of_domain(d)
            assert rows.size > 0
            rate = part.labels[rows].mean()
            assert abs(rate - 0.3) < 0.02 or rows.size < 50


def test_split_keeps_tiny_domains_everywhere():
    schema = FeatureSchema((("user_id", 10), ("item_id", 10)), n_domains=2)
    # Domain 1 has only 3 rows per label cell.
    ids = np.ones((106, 2), dtype=np.int64)
    domains = np.array([0] * 100 + [1] * 6)
    labels = np.array([0, 1] * 50 + [0, 0, 0, 1, 1, 1])
    ds = Dataset(schema, ids, labels, domains)
    for part in split_dataset(ds, seed=1):
        assert part.rows_of_domain(1).size > 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5, 1.2, "a"])
def test_split_rejects_a_ratio_that_is_not_a_finite_share(bad):
    with pytest.raises(ValueError, match="three positive numbers summing to 1"):
        split_dataset(small_ds(40), (bad, 0.5, 0.5))


def test_csv_round_trip_exact(tmp_path):
    ds = small_ds(37, seed=4)
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.ids, ds.ids)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.domains, ds.domains)


def test_csv_round_trips_a_context_field_and_trains_on_it(tmp_path):
    rng = np.random.default_rng(11)
    fields = (("user_id", 20), ("item_id", 15), ("hour", 24))
    n = 240
    ids = np.column_stack([rng.integers(0, card, n) for _, card in fields])
    ids[0] = [card - 1 for _, card in fields]  # cardinalities are inferred as max id + 1
    domains = np.arange(n) % 2
    ds = Dataset(FeatureSchema(fields, n_domains=2), ids, rng.integers(0, 2, n), domains)
    path = tmp_path / "ctx.csv"
    write_csv(ds, path)
    assert path.read_text().splitlines()[0] == "user_id,item_id,domain_id,label,hour"
    back = load_csv(path)
    assert back.schema.fields == fields and back.schema.n_domains == 2
    np.testing.assert_array_equal(back.ids, ds.ids)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.domains, ds.domains)
    cfg = TrainConfig(batch_size=64, epochs=(1, 1, 1))
    result = train_pipeline(cfg, back, "deepfm", "moe", hidden=(8,))
    assert [p.phase for p in result.phases] == [1, 2, 3]
    assert result.model.schema.fields == fields
    assert np.isfinite(result.metrics.wauc)


def test_csv_bytes_are_pinned(tmp_path):
    fields = (("user_id", 20), ("item_id", 15), ("hour", 24))
    ds = Dataset(FeatureSchema(fields, n_domains=3), np.array([[3, 14, 0], [19, 0, 23]]),
                 np.array([1, 0]), np.array([2, 0]))
    path = tmp_path / "two.csv"
    write_csv(ds, path)
    assert path.read_bytes() == (b"user_id,item_id,domain_id,label,hour\n"
                                 b"3,14,2,1,0\n"
                                 b"19,0,0,0,23\n")


def test_csv_byte_identical_per_spec(tmp_path):
    spec = SyntheticSpec(n_domains=2, n_users=50, n_items=40, rows_per_domain=100, seed=9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_synthetic(spec, p1)
    write_synthetic(spec, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.spec.json").exists()


def test_duplicate_rows_permitted():
    schema = FeatureSchema((("user_id", 5), ("item_id", 5)), n_domains=1)
    ids = np.array([[1, 2], [1, 2], [1, 2]])
    ds = Dataset(schema, ids, np.array([0, 1, 0]), np.zeros(3, dtype=int))
    assert len(ds) == 3


@pytest.mark.parametrize("ids,labels,domains,named", [
    ([[1.9, 2.2]], [0], [0], "'user_id'"),
    ([[1, 2.5]], [0], [0], "'item_id'"),
    ([[np.nan, 2]], [0], [0], "'user_id'"),
    ([[1, 2]], [0.7], [0], "label"),
    ([[1, 2]], [np.inf], [0], "label"),
    ([[1, 2]], [1], [1.5], "domain"),
])
def test_fractional_or_non_finite_values_are_named_not_truncated(ids, labels, domains,
                                                                 named):
    schema = FeatureSchema((("user_id", 5), ("item_id", 5)), n_domains=2)
    with pytest.raises(ValueError, match=f"{named} holds .*not a whole number"):
        Dataset(schema, np.array(ids), np.array(labels), np.array(domains))


def test_integral_floats_and_bools_are_accepted():
    schema = FeatureSchema((("user_id", 5), ("item_id", 5)), n_domains=2)
    ds = Dataset(schema, np.array([[1.0, 2.0], [3.0, 0.0]]), np.array([True, False]),
                 np.array([1.0, 0.0]))
    assert ds.ids.dtype == ds.labels.dtype == ds.domains.dtype == np.int64
    np.testing.assert_array_equal(ds.ids, [[1, 2], [3, 0]])
    np.testing.assert_array_equal(ds.labels, [1, 0])
    np.testing.assert_array_equal(ds.domains, [1, 0])


def test_malformed_rows_cite_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["user_id,item_id,domain_id,label", "1,1,0,1", "2,1,0,0", "3,1,0,1",
            "4,1,0,2", "5,1,0,1"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=":5:"):
        load_csv(path)
    path.write_text("user_id,item_id,domain_id,label\n1,1,0,1\n2,x,0,1\n")
    with pytest.raises(ValueError, match=":3:"):
        load_csv(path)
    path.write_text("user_id,item_id,domain_id,label\n1,-1,0,1\n")
    with pytest.raises(ValueError, match="negative"):
        load_csv(path)


def test_unknown_domain_rejected():
    schema = FeatureSchema((("user_id", 10), ("item_id", 10)), n_domains=2)
    with pytest.raises(ValueError, match=r"domain ids must lie in \[0, 2\)"):
        Dataset(schema, np.array([[1, 1]]), np.array([1]), np.array([5]))


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("user_id,item_id,domain_id,label\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)


def test_generator_hits_positive_rate():
    for rate in (0.3, 0.5):
        spec = SyntheticSpec(n_domains=3, n_users=300, n_items=200,
                             rows_per_domain=2000, positive_rate=rate, seed=3)
        ds = generate_synthetic(spec)
        for d in range(3):
            rows = ds.rows_of_domain(d)
            assert abs(ds.labels[rows].mean() - rate) < 0.02


def test_generator_is_deterministic_and_pairs_distinct():
    spec = SyntheticSpec(n_domains=2, n_users=60, n_items=50, rows_per_domain=500, seed=8)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.labels, b.labels)
    for d in range(2):
        rows = a.rows_of_domain(d)
        pairs = {(int(u), int(i)) for u, i in a.ids[rows]}
        assert len(pairs) == rows.size


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_users,n_items,rows", [
    (60, 50, 500), (2000, 2500, 3000), (7, 3, 21), (12, 10, 120), (40, 30, 1100)])
def test_sample_pairs_takes_the_loops_draws(seed, n_users, n_items, rows):
    # (7, 3, 21) and (12, 10, 120) fill their grid, so they need several rounds.
    spec = SyntheticSpec(n_domains=2, n_users=n_users, n_items=n_items,
                         rows_per_domain=rows, seed=seed)
    for d in range(2):
        users, items = _sample_pairs(spec, d)
        want_users, want_items = sample_pairs_loop(spec, d)
        assert users.dtype == items.dtype == np.int64
        np.testing.assert_array_equal(users, want_users)
        np.testing.assert_array_equal(items, want_items)


def test_too_many_interactions_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        SyntheticSpec(n_users=10, n_items=10, rows_per_domain=101)


@pytest.mark.parametrize("field", ["n_domains", "n_users", "n_items", "rows_per_domain"])
@pytest.mark.parametrize("bad", [2.5, True, 0, float("nan")])
def test_spec_names_a_count_that_is_not_a_positive_integer(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be a positive integer, got {bad!r}"):
        SyntheticSpec(**{"n_users": 50, "n_items": 40, "rows_per_domain": 100, field: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0, True])
def test_spec_names_a_noise_scale_that_is_not_finite_and_positive(bad):
    with pytest.raises(ValueError, match=f"noise_scale must be a finite positive number, "
                                         f"got {bad!r}"):
        SyntheticSpec(noise_scale=bad)


def test_divergence_zero_rules_agree_exactly():
    spec = SyntheticSpec(n_domains=4, divergence=0.0, seed=1)
    assert rule_agreement(spec) == 1.0


def test_rule_agreement_non_increasing_in_divergence():
    levels = (0.0, 0.4, 0.8)
    means = []
    for div in levels:
        vals = [rule_agreement(SyntheticSpec(n_domains=4, divergence=div, seed=s))
                for s in range(5)]
        means.append(np.mean(vals))
    assert means[0] >= means[1] - 1e-9
    assert means[1] >= means[2] - 1e-9
    assert means[2] < 0.95  # high divergence really does change the rules


def test_domain_batches_are_single_domain_and_cover_epoch():
    ds = small_ds(57, n_domains=3, seed=6)
    batches = domain_batches(ds, 8, seed=2, epoch=0)
    seen = []
    for d, rows in batches:
        assert (ds.domains[rows] == d).all()
        seen.append(rows)
    np.testing.assert_array_equal(np.sort(np.concatenate(seen)), np.arange(57))
    # Uneven domains: each row once per epoch, batches in proportion to rows.
    schema = FeatureSchema((("user_id", 9), ("item_id", 9)), n_domains=2)
    domains = np.array([0] * 100 + [1] * 10)
    ds = Dataset(schema, np.ones((110, 2), dtype=np.int64), np.zeros(110, dtype=int), domains)
    for epoch in (0, 1):
        batches = domain_batches(ds, 10, seed=0, epoch=epoch)
        assert all((domains[rows] == d).all() for d, rows in batches)
        np.testing.assert_array_equal(np.sort(np.concatenate([r for _, r in batches])),
                                      np.arange(110))
        assert [sum(d == k for d, _ in batches) for k in (0, 1)] == [10, 1]


@pytest.mark.parametrize("ids,labels,domains,named", [
    (np.zeros(2, dtype=int), [0, 1], [0, 0], r"ids must be \(n, 2\), got \(2,\)"),
    (np.zeros((2, 3), dtype=int), [0, 1], [0, 0], r"ids must be \(n, 2\), got \(2, 3\)"),
    (np.zeros((0, 2), dtype=int), [], [], "dataset has no rows"),
    (np.zeros((2, 2), dtype=int), [0], [0, 0], "must have matching length"),
    (np.zeros((2, 2), dtype=int), [0, 1], [0], "must have matching length"),
    ([[5, 0]], [0], [0], r"field 'user_id' has ids outside \[0, 5\)"),
    ([[0, -1]], [0], [0], r"field 'item_id' has ids outside \[0, 4\)"),
    ([[0, 0], [1, 1]], [1, 2], [0, 0], "labels must be 0 or 1"),
])
def test_dataset_names_each_malformed_input(ids, labels, domains, named):
    schema = FeatureSchema((("user_id", 5), ("item_id", 4)), n_domains=2)
    with pytest.raises(ValueError, match=named):
        Dataset(schema, np.array(ids), np.array(labels), np.array(domains))


@pytest.mark.parametrize("text,named", [
    ("", "empty file"),
    ("user,item,domain,label\n1,1,0,1\n", "header must start with user_id,item_id,"),
    ("user_id,item_id,domain_id,label\n1,1,0,1\n1,1,0\n", ":3: expected 4 columns, got 3"),
    ("user_id,item_id,domain_id,label,hour\n1,1,0,1\n", ":2: expected 5 columns, got 4"),
])
def test_load_csv_names_a_bad_header_or_row_shape(tmp_path, text, named):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=named):
        load_csv(path)


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("user_id,item_id,domain_id,label\n1,2,0,1\n\n3,0,1,0\n\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.ids, [[1, 2], [3, 0]])
    np.testing.assert_array_equal(ds.labels, [1, 0])
    np.testing.assert_array_equal(ds.domains, [0, 1])


def test_split_of_too_few_rows_names_the_empty_part():
    with pytest.raises(ValueError, match="split produced an empty part"):
        split_dataset(small_ds(1))


def test_batch_iter_refuses_a_batch_size_below_one():
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        next(batch_iter(small_ds(4), 0))
