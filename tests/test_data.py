import numpy as np
import pytest

from helpers import rule_agreement, sample_pairs_loop
from moectr.data import (
    Dataset,
    SyntheticSpec,
    domain_batches,
    generate_synthetic,
    load_csv,
    shuffled_batches,
    split_dataset,
    write_csv,
    write_synthetic,
)
from moectr.data import _sample_pairs
from moectr.metrics import sparsity
from moectr.models import FeatureSchema
from moectr.training import TrainConfig, train_pipeline


def small_ds(n=10, n_domains=2, seed=0):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema((("user_id", 20), ("item_id", 15)), n_domains=n_domains)
    ids = np.column_stack([rng.integers(0, 20, n), rng.integers(0, 15, n)])
    return Dataset(schema, ids, rng.integers(0, 2, n), rng.integers(0, n_domains, n))


def test_shuffled_batches_sizes_and_coverage():
    rows = np.arange(100, 110)
    batches = shuffled_batches(rows, 4, np.random.default_rng(5))
    assert [b.size for b in batches] == [4, 4, 2]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)), rows)


def test_shuffled_batches_follow_the_generator_deterministically():
    rows = np.flatnonzero(small_ds(23).domains == 1)

    def cut(key):
        return np.concatenate(shuffled_batches(rows, 5, np.random.default_rng(key)))

    a, b, c = cut([3, 1]), cut([3, 1]), cut([3, 2])
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a, rows[np.random.default_rng([3, 1]).permutation(rows.size)])
    # A count n stands for np.arange(n) and draws the same order.
    whole = [shuffled_batches(n, 5, np.random.default_rng([3, 1])) for n in (23, np.arange(23))]
    np.testing.assert_array_equal(np.concatenate(whole[0]), np.concatenate(whole[1]))


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


@pytest.mark.parametrize("card,want", [(256, np.uint8), (257, np.uint16), (65_537, np.uint32)])
def test_ids_take_the_smallest_unsigned_type_of_the_largest_cardinality(card, want):
    schema = FeatureSchema((("user_id", 3), ("item_id", card)), n_domains=2)
    ds = Dataset(schema, np.array([[2, card - 1], [0, 0]]), np.array([1, 0]), np.array([0, 1]))
    assert ds.ids.dtype == want
    np.testing.assert_array_equal(ds.ids, [[2, card - 1], [0, 0]])


@pytest.mark.parametrize("n_domains,want", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_domains_take_the_smallest_unsigned_type_of_the_domain_count(n_domains, want):
    schema = FeatureSchema((("user_id", 3),), n_domains=n_domains)
    ds = Dataset(schema, np.array([[2], [0]]), np.array([True, False]),
                 np.array([n_domains - 1, 0]))
    assert ds.domains.dtype == want and ds.labels.dtype == np.uint8
    np.testing.assert_array_equal(ds.domains, [n_domains - 1, 0])


def test_a_row_costs_six_bytes_on_the_benchmark_schema_and_keeps_its_types():
    ds = generate_synthetic(SyntheticSpec(n_domains=4, n_users=2000, n_items=2500,
                                          rows_per_domain=300))
    assert ds.ids.nbytes + ds.labels.nbytes + ds.domains.nbytes == 6 * len(ds)
    types = (np.uint16, np.uint8, np.uint8)
    for part in split_dataset(ds) + (ds.subset([3, 0]),):
        assert (part.ids.dtype, part.labels.dtype, part.domains.dtype) == types
    batch = ds.batch([5, 1])
    assert (batch.ids.dtype, batch.labels.dtype) == types[:2]


def test_csv_bytes_and_values_survive_a_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    fields = (("user_id", 300), ("item_id", 40), ("hour", 24))
    n = 200
    ids = np.column_stack([rng.integers(0, card, n) for _, card in fields])
    labels, domains = rng.integers(0, 2, n), np.arange(n) % 3
    ds = Dataset(FeatureSchema(fields, n_domains=3), ids, labels, domains)
    path, again = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ds, path)
    # The bytes of the same rows written from int64 columns.
    ref = tmp_path / "ref.csv"
    cols = np.column_stack([ids[:, :2], domains, labels, ids[:, 2:]]).astype(np.int64)
    np.savetxt(ref, cols, fmt="%d", delimiter=",",
               header="user_id,item_id,domain_id,label,hour", comments="")
    assert path.read_bytes() == ref.read_bytes()
    back = load_csv(path)
    np.testing.assert_array_equal(back.ids, ids)
    np.testing.assert_array_equal(back.labels, labels)
    np.testing.assert_array_equal(back.domains, domains)
    write_csv(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_sparsity_counts_pairs_whose_codes_overflow_the_id_type():
    rng = np.random.default_rng(13)
    schema = FeatureSchema((("user_id", 300), ("item_id", 300)), n_domains=3)
    n = 3000
    ids = np.column_stack([rng.integers(0, 300, n), rng.integers(0, 300, n)])
    ids[-200:] = ids[:200]  # repeated pairs, some in another domain
    domains = rng.integers(0, 3, n)
    ds = Dataset(schema, ids, rng.integers(0, 2, n), domains)
    assert ds.ids.dtype == np.uint16 and 299 * 300 + 299 > np.iinfo(np.uint16).max
    pairs = [(int(u), int(i)) for u, i in ids]
    grid = 300.0 * 300.0
    rep = sparsity(ds)
    assert rep.overall == 1.0 - len(set(pairs)) / grid
    assert rep.per_domain == tuple(
        1.0 - len({p for p, dd in zip(pairs, domains) if dd == d}) / grid for d in range(3))


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
    assert ds.ids.dtype == ds.labels.dtype == ds.domains.dtype == np.uint8
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


def test_the_batch_rule_refuses_a_batch_size_below_one():
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        shuffled_batches(np.arange(4), 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        domain_batches(small_ds(4), 0)


@pytest.mark.parametrize("fields", [
    (("user_id", 5),),
    (("u", 5), ("i", 4)),
    (("item_id", 5), ("user_id", 4)),
])
def test_write_csv_refuses_a_schema_its_header_cannot_name(tmp_path, fields):
    ids = np.zeros((2, len(fields)), dtype=int)
    ds = Dataset(FeatureSchema(fields, n_domains=2), ids, np.array([0, 1]), np.array([0, 1]))
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError, match="first two fields are user_id and item_id"):
        write_csv(ds, path)
    assert not path.exists()
