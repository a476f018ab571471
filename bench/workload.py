"""One benchmark workload in a fresh process: set up, train, evaluate, check.

Run by ``run.py`` as a child process with the BLAS thread variables already
pinned to 1, so that nothing here, numpy included, loads before the set-up
clock starts:

    python3 bench/workload.py --workload moe-e4 --seed 0 --seconds 2 \
        --trace 0 --out DIR

trains once, evaluates for ``--seconds``, runs the checks and prints one
JSON object as its last line.  ``--train-only`` stops after training.
Only moectr's public API is called: ``generate_synthetic``,
``train_pipeline`` with an output directory, ``metrics.evaluate``, then,
for the checks, ``split_dataset``, ``CtrModel.predict`` and
``load_checkpoint``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    mode: str
    experts_per_domain: int
    # An untraced run makes this many rounds, each in a fresh process that
    # sets up, trains once and evaluates for its share of --seconds, and
    # reports medians over the rounds: a slow spell of the shared host then
    # moves a round or two, not the figure.  Each round is a fresh process
    # because a process that has already trained and evaluated trains faster
    # than a new one (see README.md).
    rounds: int


WORKLOADS = {
    "moe-e4": Workload("moe", 1, 3),
    "mlora": Workload("mlora", 1, 5),
}


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload run; ``FULL`` is the criterion-7 setup."""

    data: dict = field(default_factory=lambda: dict(
        n_domains=4, n_users=2000, n_items=2500, rows_per_domain=12500,
        divergence=0.8, noise_scale=0.05))
    hidden: tuple[int, ...] = (64, 32)
    embedding_dim: int = 4
    rank: int = 8
    alpha: float = 8.0
    # patience 20 exceeds every phase's epoch budget: every phase runs all its
    # epochs, so the work done does not hinge on where early stopping lands.
    train: dict = field(default_factory=lambda: dict(
        lr=3e-3, gate_lr=5e-2, batch_size=256, epochs=(10, 14, 20), patience=20))
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    # The generator's seed is fixed: the benchmark seed drives the trainer
    # (split, initialisation, batch order).  See README.md.
    data_seed: int = 0


FULL = Scale()
MIN_EVAL_PASSES = 3
# A fixed count in the traced run, so that its counts repeat exactly.
TRACE_EVAL_PASSES = 1


def setup(scale: Scale):
    """Import moectr and generate the dataset; returns (modules, dataset, seconds)."""
    t0 = time.perf_counter()
    import moectr.data as mdata
    import moectr.metrics as mmetrics
    import moectr.models as mmodels
    import moectr.training as mtraining
    modules = (mdata, mmodels, mtraining, mmetrics)
    ds = mdata.generate_synthetic(mdata.SyntheticSpec(seed=scale.data_seed, **scale.data))
    return modules, ds, time.perf_counter() - t0


def rows_stepped(phases, train) -> int:
    """Rows through forward, backward and Adam: epochs run x rows of each phase's data."""
    counts = train.domain_counts()
    rows = 0
    for report in phases:
        if report.phase == 2:
            for child in report.children:
                d = int(child.unit[len("expert("):].split(",")[0])
                rows += child.epochs_run * int(counts[d])
        else:
            rows += report.epochs_run * len(train)
    return rows


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
        scale: Scale = FULL, train_only: bool = False) -> dict:
    """Run one workload; returns the child's result record."""
    wl = WORKLOADS[name]
    (mdata, mmodels, mtraining, mmetrics), ds, setup_s = setup(scale)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
        ds = mdata.generate_synthetic(mdata.SyntheticSpec(seed=scale.data_seed, **scale.data))
    cfg = mtraining.TrainConfig(seed=seed, **scale.train)
    adapter = mmodels.AdapterConfig(rank=scale.rank, alpha=scale.alpha,
                                    experts_per_domain=wl.experts_per_domain)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    res = mtraining.train_pipeline(cfg, ds, "mlp", wl.mode, adapter, hidden=scale.hidden,
                                   ratios=scale.ratios, out_dir=out_dir,
                                   embedding_dim=scale.embedding_dim)
    train_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "train_s": train_s, "test_wauc": res.metrics.wauc}
    if train_only:
        return out

    # Keep the predictions each evaluate pass makes, for the checks.
    model = res.model
    recorded: dict = {}
    predict = model.predict

    def recording_predict(ids, domain, view=None):
        recorded[domain] = predict(ids, domain, view=view)
        return recorded[domain]

    model.predict = recording_predict
    pass_s, reports = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reports.append(mmetrics.evaluate(model, ds))
        pass_s.append(time.perf_counter() - t0)
        if trace:
            if len(pass_s) == TRACE_EVAL_PASSES:
                break
        elif len(pass_s) >= MIN_EVAL_PASSES and time.perf_counter() - start >= seconds:
            break
    del model.predict
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    train, _, test = mdata.split_dataset(ds, scale.ratios, seed=seed)
    out.update({
        "train_rows_per_s": rows_stepped(res.phases, train) / train_s,
        "eval_rows_per_s": len(ds) / statistics.median(pass_s),
        "peak_rss_mb": peak_rss_mb,
        "eval_passes": len(pass_s),
    })
    full_pred = [recorded[d] for d in range(ds.schema.n_domains)]
    results = run_checks(res, ds, test, full_pred, reports, out_dir, mmodels)
    out["checks"] = results
    out["attempted"] = 1 + len(pass_s) + len(results)
    out["failed"] = sum(1 for r in results if not r["ok"])
    if tracer is not None:
        out["per_layer"] = tracer.per_layer()
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
    return out


def run_checks(res, ds, test, full_pred, reports, out_dir, mmodels) -> list[dict]:
    """Checks (a)-(e); each is one operation that passes or fails by name.

    ``full_pred`` holds, per domain, the trained model's predictions from the
    last evaluate pass over ``ds``; ``reports`` the reports of every pass.
    """
    import checks

    model = res.model
    domains = range(ds.schema.n_domains)
    full_rows = [ds.rows_of_domain(d) for d in domains]
    test_rows = [test.rows_of_domain(d) for d in domains]
    test_pred = [model.predict(test.ids[r], d) for d, r in zip(domains, test_rows)]
    ckpts = [os.path.join(out_dir, f"phase{i}.npz") for i in range(1, len(res.phases) + 1)]
    results: list[dict] = []

    def attempt(label, fn):
        try:
            value = fn()
        except checks.CheckError as e:
            results.append({"check": label, "ok": False, "message": str(e)})
            return None
        results.append({"check": label, "ok": True})
        return value

    manifest, params = checks.read_checkpoint(ckpts[-1])
    forward = attempt("a-forward", lambda: checks.check_forward(
        manifest, params,
        [(test.ids[r], d, p) for d, r, p in zip(domains, test_rows, test_pred)]
        + [(ds.ids[r], d, p) for d, r, p in zip(domains, full_rows, full_pred)]))
    refs = None
    if forward is not None:
        refs, results[-1]["max_abs_diff"] = forward

    def wauc_checks():
        if refs is None:
            raise checks.CheckError("b-wauc", "no reference predictions (check a failed)")
        n = len(test_rows)
        checks.check_wauc("test_wauc", res.metrics.wauc,
                          [test.labels[r] for r in test_rows], refs[:n])
        full_labels = [ds.labels[r] for r in full_rows]
        for i, rep in enumerate(reports):
            checks.check_wauc(f"evaluate pass {i}", rep.wauc, full_labels, refs[n:])

    attempt("b-wauc", wauc_checks)
    attempt("c-freeze", lambda: checks.check_freeze(
        [checks.read_checkpoint(p) for p in ckpts]))

    def round_trip():
        loaded = mmodels.load_checkpoint(ckpts[-1])
        checks.check_round_trip(
            test_pred, [loaded.predict(test.ids[r], d) for d, r in zip(domains, test_rows)])

    attempt("d-round-trip", round_trip)
    attempt("e-quality", lambda: checks.check_quality(
        [m.auc for m in res.metrics.per_domain]))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--train-only", action="store_true")
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out,
              train_only=args.train_only)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
