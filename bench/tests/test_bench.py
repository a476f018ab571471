"""Tests of the benchmark itself: small end-to-end runs and failing checks.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import workload  # noqa: E402
from moectr.metrics import evaluate  # noqa: E402
from moectr.models import load_checkpoint  # noqa: E402

SMALL = replace(
    workload.FULL,
    data=dict(n_domains=4, n_users=120, n_items=100, rows_per_domain=1500,
              divergence=0.8, noise_scale=0.05),
    hidden=(16, 8), rank=2, alpha=2.0,
    train=dict(lr=1e-2, gate_lr=5e-2, batch_size=128, epochs=(4, 3, 3), patience=20),
)
WORKLOAD_MODES = {n: w.mode for n, w in workload.WORKLOADS.items()}


@pytest.fixture(scope="module", params=sorted(workload.WORKLOADS))
def small_run(request, tmp_path_factory):
    out = str(tmp_path_factory.mktemp(request.param))
    result = workload.run(request.param, seed=1, seconds=0.0, trace=False, out_dir=out,
                          scale=SMALL)
    return request.param, out, result


def _phases(out):
    names = sorted(n for n in os.listdir(out) if n.startswith("phase"))
    return [checks.read_checkpoint(os.path.join(out, n)) for n in names]


def _cases(model, ds):
    return [(ds.ids[ds.domains == d], d, model.predict(ds.ids[ds.domains == d], d))
            for d in range(ds.schema.n_domains)]


def test_small_run_passes_every_check(small_run):
    name, out, result = small_run
    assert [c["check"] for c in result["checks"]] == [
        "a-forward", "b-wauc", "c-freeze", "d-round-trip", "e-quality"]
    assert all(c["ok"] for c in result["checks"]), result["checks"]
    assert result["failed"] == 0
    assert result["attempted"] == 1 + result["eval_passes"] + 5
    assert len(_phases(out)) == (3 if WORKLOAD_MODES[name] == "moe" else 2)
    for key in ("train_s", "train_rows_per_s", "eval_rows_per_s", "test_wauc", "peak_rss_mb"):
        assert result[key] > 0


def test_forward_check_fails_on_perturbed_b(small_run):
    _, out, _ = small_run
    manifest, params = _phases(out)[-1]
    model = load_checkpoint(os.path.join(out, sorted(os.listdir(out))[-1]))
    _, ds, _ = workload.setup(SMALL)
    cases = _cases(model, ds)
    checks.check_forward(manifest, params, cases)
    params = dict(params)
    params["tower.0.e1.0.B"] = params["tower.0.e1.0.B"].copy()
    params["tower.0.e1.0.B"][0, 0] += 1e-3
    with pytest.raises(checks.CheckError, match="a-forward"):
        checks.check_forward(manifest, params, cases)


def test_forward_check_fails_on_swapped_gate_rows(small_run):
    name, out, _ = small_run
    if WORKLOAD_MODES[name] != "moe":
        pytest.skip("mlora has no gates")
    manifest, params = _phases(out)[-1]
    model = load_checkpoint(os.path.join(out, "phase3.npz"))
    _, ds, _ = workload.setup(SMALL)
    logits = params["tower.0.gate.logits"]
    assert not np.array_equal(logits[0], logits[1])
    params = dict(params)
    params["tower.0.gate.logits"] = logits[[1, 0, 2, 3]]
    with pytest.raises(checks.CheckError, match="a-forward"):
        checks.check_forward(manifest, params, _cases(model, ds))


def test_wauc_check_fails_off_by_1e9(small_run):
    _, out, _ = small_run
    manifest, params = _phases(out)[-1]
    model = load_checkpoint(os.path.join(out, sorted(os.listdir(out))[-1]))
    _, ds, _ = workload.setup(SMALL)
    refs, _ = checks.check_forward(manifest, params, _cases(model, ds))
    labels = [ds.labels[ds.domains == d] for d in range(ds.schema.n_domains)]
    reported = evaluate(model, ds).wauc
    checks.check_wauc("evaluate", reported, labels, refs)
    with pytest.raises(checks.CheckError, match="b-wauc"):
        checks.check_wauc("evaluate", reported + 1e-9, labels, refs)


def test_freeze_check_fails_on_moved_backbone_weight(small_run):
    _, out, _ = small_run
    phases = _phases(out)
    checks.check_freeze(phases)
    manifest, params = phases[1]
    params = dict(params)
    params["tower.0.W"] = params["tower.0.W"].copy()
    params["tower.0.W"][0, 0] += 1e-6
    with pytest.raises(checks.CheckError, match="c-freeze"):
        checks.check_freeze([phases[0], (manifest, params)] + phases[2:])


def test_round_trip_check_fails_on_altered_checkpoint(small_run, tmp_path):
    _, out, _ = small_run
    last = os.path.join(out, sorted(os.listdir(out))[-1])
    model = load_checkpoint(last)
    _, ds, _ = workload.setup(SMALL)
    preds = [p for _, _, p in _cases(model, ds)]
    with np.load(last) as z:
        arrays = {k: z[k] for k in z.files}
    copy = tmp_path / "copy.npz"
    np.savez(copy, **arrays)
    checks.check_round_trip(preds, [p for _, _, p in _cases(load_checkpoint(copy), ds)])
    key = next(k for k in arrays if k != "manifest")
    arrays[key] = arrays[key] * (1.0 + 1e-12)
    np.savez(copy, **arrays)
    with pytest.raises(checks.CheckError, match="d-round-trip"):
        checks.check_round_trip(preds, [p for _, _, p in _cases(load_checkpoint(copy), ds)])


def test_quality_check_fails_near_chance():
    checks.check_quality([0.7, 0.6, 0.551])
    with pytest.raises(checks.CheckError, match="e-quality"):
        checks.check_quality([0.7, 0.549, 0.8])
    with pytest.raises(checks.CheckError, match="e-quality"):
        checks.check_quality([0.7, None])


def test_pair_auc_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        y = rng.integers(0, 2, size=n)
        s = rng.integers(0, 6, size=n).astype(float)  # many ties
        pos, neg = s[y == 1], s[y == 0]
        got = checks.pair_auc(y, s)
        if pos.size == 0 or neg.size == 0:
            assert got is None
            continue
        want = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (pos.size * neg.size)
        assert got == want


def test_traced_counts_repeat(tmp_path):
    runs = [workload.run("moe-e4", seed=2, seconds=0.0, trace=True,
                         out_dir=str(tmp_path / f"r{i}"), scale=SMALL) for i in range(2)]
    a, b = (r["per_layer"] for r in runs)
    assert set(a) == set(b)
    counts = [k for k in a if not any(p.endswith("_s") for p in k.split("."))]
    assert counts and {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert 0 < a["layers.mixture_nodes"] < a["models.tape_nodes.mixture"]
    assert a["training.steps.phase3"] > 0 and a["metrics.evaluate_calls"] > 0


def test_runner_refuses_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mlora"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
