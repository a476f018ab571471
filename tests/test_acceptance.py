"""Acceptance suite: nine checks, one printed pass/fail line each.

Each test prints ``criterion N (label): PASS/FAIL ...`` to the real
terminal (capture is suspended for the line) and then asserts, so the
printed verdicts survive any pytest capture settings.
"""

import dataclasses
import json
import time
import warnings

import numpy as np
import pytest

from helpers import auc_bruteforce, model_loss_fn, sample_inputs
from moectr import cli
from moectr.autodiff import ParamStore, Tape, grad_check
from moectr.data import SyntheticSpec, generate_synthetic, split_dataset
from moectr.layers import DenseLayer, GateNet, LoRAAdapter, MoELayer
from moectr.metrics import auc, sparsity, wauc
from moectr.models import (
    ARCHS,
    MODES,
    AdapterConfig,
    FeatureSchema,
    build_model,
)
from moectr.training import TrainConfig, train_pipeline


@pytest.fixture
def report(pytestconfig):
    cap = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _report(n, label, ok, details=""):
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {n} ({label}): {verdict}" + (f" -- {details}" if details else "")
        try:
            with cap.global_and_fixture_disabled():
                print(line, flush=True)
        except Exception:
            print(line, flush=True)
        assert ok, line

    return _report


SCHEMA = FeatureSchema(fields=(("user_id", 13), ("item_id", 11)),
                       embedding_dim=4, n_domains=2)


def _perturb_adapters(model, seed=1):
    rng = np.random.default_rng(seed)
    for name in model.store.names():
        if name.endswith(".B"):
            model.store.set(name, rng.normal(size=model.store.get(name).shape) * 0.3)
        if name.endswith("gate.logits"):
            model.store.set(name, rng.normal(size=model.store.get(name).shape) * 0.3)


def _model_grad_err(arch, mode, **adapter_kw):
    m = build_model(SCHEMA, arch, mode,
                    AdapterConfig(rank=2, alpha=2.0, **adapter_kw),
                    seed=21, hidden=(6, 5))
    _perturb_adapters(m)
    ids, y = sample_inputs(m, batch=5, seed=13, domain=1)
    f = model_loss_fn(m, ids, y, domain=1)
    theta0 = np.concatenate([m.store.get(n).reshape(-1) for n in m.store.names()])
    return grad_check(f, theta0, eps=1e-5)


def _composite_layer_grad_err():
    # One graph touching every layer type: dense base and head, two rank-2
    # adapters, a softmax gate, mixture, sigmoid, bce.
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 3)) + 0.2
    y = (rng.random(6) > 0.5).astype(float).reshape(6, 1)
    layout = [
        ("l0.W", (4, 3)), ("l0.b", (4,)),
        ("l0.e0.A", (2, 3)), ("l0.e0.B", (4, 2)),
        ("l0.e1.A", (2, 3)), ("l0.e1.B", (4, 2)),
        ("l0.gate.logits", (2, 2)),
        ("head.W", (1, 4)), ("head.b", (1,)),
    ]
    sizes = [int(np.prod(s)) for _, s in layout]

    def f(theta):
        store = ParamStore()
        off = 0
        vals = {}
        for (name, shape), size in zip(layout, sizes):
            vals[name] = theta[off: off + size].reshape(shape)
            off += size
        base = DenseLayer.from_arrays(store, "l0", vals["l0.W"], vals["l0.b"], "relu")
        ads = []
        for d in range(2):
            ad = LoRAAdapter(store, f"l0.e{d}", 3, 4, rank=2, alpha=2.0,
                             group=f"expert({d},0,l0)", seed=d)
            store.set(f"l0.e{d}.A", vals[f"l0.e{d}.A"])
            store.set(f"l0.e{d}.B", vals[f"l0.e{d}.B"])
            ads.append((d, 0, ad))
        gate = GateNet(store, "l0.gate", n_domains=2, n_cols=2)
        store.set("l0.gate.logits", vals["l0.gate.logits"])
        layer = MoELayer(base, ads, gate=gate)
        head = DenseLayer.from_arrays(store, "head", vals["head.W"], vals["head.b"])
        tape = Tape(store)
        h = layer.emit(tape, tape.input("x"), tape.input("domain"))
        p = tape.sigmoid(head.emit(tape, h))
        loss = tape.bce(p, tape.input("y"))
        v = tape.forward({"x": x, "domain": np.array([1]), "y": y}, output=loss)
        grads = tape.backward(loss)
        flat = [np.asarray(grads.get(n, np.zeros(s))).reshape(-1) for n, s in layout]
        return float(v), np.concatenate(flat)

    theta0 = rng.normal(size=sum(sizes)) * 0.4
    return grad_check(f, theta0, eps=1e-5)


def test_criterion_1_gradient_suite(report):
    t0 = time.monotonic()
    errs = [_composite_layer_grad_err()]
    for arch in ARCHS:
        for mode in MODES:
            kw = {"experts_per_domain": 2} if mode == "moe" else {}
            errs.append(_model_grad_err(arch, mode, **kw))
    elapsed = time.monotonic() - t0
    worst = max(errs)
    ok = worst < 1e-5 and elapsed < 60.0
    report(1, "gradient suite", ok,
           f"max rel err {worst:.2e} over {len(errs)} graphs in {elapsed:.1f}s")


def test_criterion_2_zero_init_equivalence(report):
    schema = FeatureSchema(fields=(("user_id", 500), ("item_id", 300)),
                           embedding_dim=8, n_domains=3)
    rng = np.random.default_rng(5)
    ids = np.column_stack([rng.integers(0, 500, 1000), rng.integers(0, 300, 1000)])
    domains = rng.integers(0, 3, 1000)
    identical = 0
    for arch in ARCHS:
        plain = build_model(schema, arch, "plain", seed=11, hidden=(16, 8))
        for mode in ("mlora", "moe"):
            adapted = build_model(schema, arch, mode, AdapterConfig(rank=4),
                                  seed=11, hidden=(16, 8))
            for d in range(3):
                mask = domains == d
                a = plain.predict(ids[mask], d)
                b = adapted.predict(ids[mask], d)
                if np.array_equal(a, b):
                    identical += 1
    ok = identical == len(ARCHS) * 2 * 3
    report(2, "zero-init equivalence", ok,
           f"{identical}/{len(ARCHS) * 2 * 3} (arch, mode, domain) prediction "
           "sets bit-identical on 1000 inputs")


def test_criterion_3_mlora_reduction(report):
    spec = SyntheticSpec(n_domains=2, n_users=300, n_items=200,
                         rows_per_domain=1200, divergence=0.6, seed=7,
                         noise_scale=0.1)
    ds = generate_synthetic(spec)
    cfg = TrainConfig(lr=3e-3, gate_lr=1e-2, batch_size=128, epochs=(3, 3, 2),
                      seed=7, patience=10)
    adapter = AdapterConfig(rank=3, alpha=3.0)
    one_hot = dataclasses.replace(adapter, gate_force_one_hot=True)
    res_mlora = train_pipeline(cfg, ds, "mlp", "mlora", adapter)
    res_moe = train_pipeline(cfg, ds, "mlp", "moe", one_hot)
    _, _, test = split_dataset(ds, (0.8, 0.1, 0.1), seed=cfg.seed)
    exact = 0
    for d in range(2):
        rows = test.ids[test.domains == d]
        if np.array_equal(res_mlora.model.predict(rows, d),
                          res_moe.model.predict(rows, d)):
            exact += 1
    ok = exact == 2 and res_mlora.metrics.wauc == res_moe.metrics.wauc
    report(3, "one-hot reduction", ok,
           f"{exact}/2 domains bit-identical after full pipelines; "
           f"wauc {res_moe.metrics.wauc:.6f} both")


def test_criterion_4_freeze_contracts(report):
    spec = SyntheticSpec(n_domains=2, n_users=300, n_items=200,
                         rows_per_domain=1200, divergence=0.6, seed=3,
                         noise_scale=0.1)
    ds = generate_synthetic(spec)
    cfg = TrainConfig(lr=3e-3, gate_lr=1e-2, batch_size=128, epochs=(2, 2, 2),
                      seed=3, patience=10)
    checked = 0
    held = 0
    for mode in MODES:
        res = train_pipeline(cfg, ds, "mlp", mode, AdapterConfig(rank=2, alpha=2.0))
        stack = list(res.phases)
        while stack:
            rep = stack.pop()
            stack.extend(rep.children)
            checked += 1
            if rep.frozen_checksum_before == rep.frozen_checksum_after:
                held += 1
    # Any violation would additionally have aborted the phase with an error.
    ok = checked >= 7 and held == checked
    report(4, "freeze contracts", ok,
           f"{held}/{checked} phase reports kept frozen bytes identical "
           "(plain, mlora, moe pipelines)")


def test_criterion_5_auc_oracle(report):
    rng = np.random.default_rng(2024)
    n_checked = 0
    n_equal = 0
    tie_heavy = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
        if rng.random() < 0.5:
            scores = rng.normal(size=n)
        else:
            levels = int(rng.integers(2, 6))
            scores = rng.integers(0, levels, size=n).astype(float)
            tie_heavy += 1
        expected = auc_bruteforce(labels, scores)
        got = auc(labels, scores)
        n_checked += 1
        if expected is None:
            n_equal += got is None
        else:
            n_equal += got == expected
    ok = n_equal == n_checked == 1000 and tie_heavy > 300
    report(5, "rank AUC equals pair counting", ok,
           f"{n_equal}/{n_checked} instances exactly equal ({tie_heavy} tie-heavy)")


def test_criterion_6_weighted_auc_arithmetic(report):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        aucs = rng.uniform(0.0, 1.0, size=k)
        counts = rng.integers(1, 1000, size=k)
        expected = float(np.sum(aucs * counts / counts.sum()))
        got = wauc(list(zip(aucs.tolist(), counts.tolist())))
        worst = max(worst, abs(got - expected))
    # Degenerate entries drop out and the remaining weights renormalize.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        renorm = wauc([(0.8, 30), (None, 1000), (0.6, 10)])
    renorm_expected = 0.8 * 0.75 + 0.6 * 0.25
    renorm_ok = (abs(renorm - renorm_expected) < 1e-12
                 and any(issubclass(w.category, RuntimeWarning) for w in caught))
    with pytest.raises(ValueError):
        wauc([(None, 5), (None, 7)])
    ok = worst < 1e-12 and renorm_ok
    report(6, "weighted AUC identity", ok,
           f"max |error| {worst:.1e} over 1000 draws; renormalization exact")


BENCH_TRAIN = TrainConfig(lr=3e-3, gate_lr=5e-2, batch_size=256,
                          epochs=(10, 14, 20), seed=0, patience=4)
BENCH_ADAPTER = AdapterConfig(rank=8, alpha=8.0)
BENCH_SEEDS = (0, 1, 2, 3, 4)


def _bench_means(divergence):
    means = {}
    for mode in MODES:
        vals = []
        for seed in BENCH_SEEDS:
            spec = SyntheticSpec(n_domains=4, n_users=2000, n_items=2500,
                                 rows_per_domain=12500, divergence=divergence,
                                 seed=seed, noise_scale=0.05)
            ds = generate_synthetic(spec)
            assert len(ds) == 50000
            assert sparsity(ds).overall >= 0.99 - 1e-12
            cfg = dataclasses.replace(BENCH_TRAIN, seed=seed)
            res = train_pipeline(cfg, ds, "mlp", mode, BENCH_ADAPTER,
                                 embedding_dim=4)
            vals.append(res.metrics.wauc)
        means[mode] = float(np.mean(vals))
    return means


def test_criterion_7_directional_synthetic(report):
    t0 = time.monotonic()
    hi = _bench_means(0.8)
    gain_vs_plain = hi["moe"] - hi["plain"]
    gap_vs_mlora = hi["moe"] - hi["mlora"]
    lo = _bench_means(0.0)
    homogeneous_gap = abs(lo["moe"] - lo["plain"])
    elapsed = time.monotonic() - t0
    ok = (gain_vs_plain >= 0.01 and gap_vs_mlora >= -0.002
          and homogeneous_gap <= 0.01 and elapsed < 1200.0)
    report(7, "directional synthetic benchmark", ok,
           f"divergent: moe-plain={gain_vs_plain:+.4f} (need >= +0.01), "
           f"moe-mlora={gap_vs_mlora:+.4f} (need >= -0.002); "
           f"homogeneous: |moe-plain|={homogeneous_gap:.4f} (need <= 0.01); "
           f"{elapsed:.0f}s over {2 * len(MODES) * len(BENCH_SEEDS)} pipelines")


def test_criterion_8_expert_sweep(report, tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "data": {"synthetic": {"n_domains": 2, "n_users": 60, "n_items": 40,
                               "rows_per_domain": 150, "divergence": 0.5,
                               "noise_scale": 0.3}},
        "expert_counts": [2, 4, 6, 8],
        "seeds": [0, 1],
        "hidden": [8, 6],
        "adapter": {"rank": 2, "alpha": 2.0},
        "train": {"batch_size": 64, "epochs": [2, 1, 1], "patience": 5},
    }))
    out = tmp_path / "sweep_out"
    code = cli.main(["sweep-experts", "--config", str(cfg_path), "--out", str(out)])
    first = (out / "sweep.csv").read_bytes()
    code2 = cli.main(["sweep-experts", "--config", str(cfg_path), "--out", str(out),
                      "--force"])
    second = (out / "sweep.csv").read_bytes()
    capsys.readouterr()
    lines = first.decode().splitlines()
    header_ok = lines[0] == "experts_total,experts_per_domain,seed,wauc,config_hash"
    cells = [ln.split(",") for ln in lines[1:]]
    got_points = {(int(c[0]), int(c[2])) for c in cells}
    want_points = {(e, s) for e in (2, 4, 6, 8) for s in (0, 1)}
    values_ok = all(0.0 <= float(c[3]) <= 1.0 for c in cells)
    ok = (code == 0 and code2 == 0 and header_ok and got_points == want_points
          and values_ok and first == second)
    report(8, "expert-count sweep", ok,
           f"8 rows for counts {{2,4,6,8}} x seeds {{0,1}}; rerun byte-identical: "
           f"{first == second}")


def test_criterion_9_rerun_determinism(report, tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "data": {"synthetic": {"n_domains": 2, "n_users": 60, "n_items": 40,
                               "rows_per_domain": 150, "divergence": 0.5,
                               "noise_scale": 0.3}},
        "mode": "moe",
        "hidden": [8, 6],
        "adapter": {"rank": 2, "alpha": 2.0},
        "train": {"batch_size": 64, "epochs": [2, 2, 2], "patience": 5},
    }))
    outs = []
    for name in ("a", "b"):
        code = cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / name)])
        stdout = capsys.readouterr().out
        assert code == 0
        outs.append(stdout)
    metrics_same = ((tmp_path / "a" / "seed0" / "metrics.jsonl").read_bytes()
                    == (tmp_path / "b" / "seed0" / "metrics.jsonl").read_bytes())
    phases_same = ((tmp_path / "a" / "seed0" / "phases.jsonl").read_bytes()
                   == (tmp_path / "b" / "seed0" / "phases.jsonl").read_bytes())
    checkpoints_same = all(
        (tmp_path / "a" / "seed0" / f"phase{i}.npz").read_bytes()
        == (tmp_path / "b" / "seed0" / f"phase{i}.npz").read_bytes()
        for i in (1, 2, 3))
    ok = outs[0] == outs[1] and metrics_same and phases_same and checkpoints_same
    report(9, "rerun determinism", ok,
           "stdout records, metrics.jsonl, phases.jsonl and all checkpoints "
           "bit-identical across reruns")
