"""Command line interface: generate data, train, compare modes, sweep experts.

Configs are JSON with a fully defaulted schema; a minimal config only names
its data source.  Every numeric artifact (metrics records, CSV rows) is
stamped with the sha256 of the resolved config and the seed that produced
it, so any number in any output can be traced to an exact invocation.

Exit codes: 0 success, 2 configuration or validation problem, 3 numeric
failure during training (the message names the phase).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .data import SyntheticSpec, generate_synthetic, load_csv, write_synthetic
from .metrics import sparsity
from .models import DEFAULT_HIDDEN, ARCHS, MODES, AdapterConfig
from .training import NumericError, TrainConfig, train_pipeline

__all__ = ["main", "ConfigError", "load_config", "resolve_config", "config_hash"]


class ConfigError(ValueError):
    """Bad config file or bad argument combination; maps to exit code 2."""


ADAPTER_DEFAULTS = asdict(AdapterConfig())
TRAIN_DEFAULTS = {k: v for k, v in asdict(TrainConfig()).items() if k != "seed"}
SYNTH_DEFAULTS = {k: v for k, v in asdict(SyntheticSpec()).items() if k != "seed"}


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}")


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def resolve_config(cfg: dict, command: str) -> dict:
    """Fill defaults and validate; returns a fully explicit config."""
    top_keys = {"data", "arch", "mode", "modes", "hidden", "embedding_dim",
                "adapter", "train", "ratios", "seeds", "expert_counts"}
    _check_keys(cfg, top_keys, "config")
    out: dict = {}

    if command == "generate":
        data = cfg.get("data")
        if not (isinstance(data, dict) and "synthetic" in data):
            raise ConfigError("generate needs data.synthetic in the config")
    data = cfg.get("data")
    if not isinstance(data, dict) or not ({"csv", "synthetic"} & set(data)):
        raise ConfigError('config needs "data": {"csv": path} or {"synthetic": {...}}')
    _check_keys(data, {"csv", "synthetic"}, "data")
    if "csv" in data and "synthetic" in data:
        raise ConfigError("data: give either csv or synthetic, not both")
    if "synthetic" in data:
        synth = dict(data["synthetic"])
        _check_keys(synth, set(SYNTH_DEFAULTS) | {"seed"}, "data.synthetic")
        pinned = "seed" in synth
        merged = {**SYNTH_DEFAULTS, **synth}
        out["data"] = {"synthetic": merged, "seed_pinned": pinned}
    else:
        out["data"] = {"csv": str(data["csv"])}

    arch = cfg.get("arch", "mlp")
    if arch not in ARCHS:
        raise ConfigError(f"arch must be one of {ARCHS}, got {arch!r}")
    out["arch"] = arch

    mode = cfg.get("mode", "moe")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    out["mode"] = mode

    modes = cfg.get("modes", list(MODES))
    if not isinstance(modes, list) or not modes or any(m not in MODES for m in modes):
        raise ConfigError(f"modes must be a non-empty subset of {MODES}")
    out["modes"] = modes

    hidden = cfg.get("hidden", list(DEFAULT_HIDDEN))
    if not isinstance(hidden, list) or not hidden or any(
            not isinstance(h, int) or h < 1 for h in hidden):
        raise ConfigError("hidden must be a list of positive layer widths")
    out["hidden"] = hidden

    emb = cfg.get("embedding_dim")
    if emb is not None and (not isinstance(emb, int) or emb < 1):
        raise ConfigError("embedding_dim must be a positive integer or null")
    out["embedding_dim"] = emb

    adapter = dict(cfg.get("adapter", {}))
    _check_keys(adapter, set(ADAPTER_DEFAULTS), "adapter")
    out["adapter"] = {**ADAPTER_DEFAULTS, **adapter}

    train = dict(cfg.get("train", {}))
    _check_keys(train, set(TRAIN_DEFAULTS), "train")
    out["train"] = {**TRAIN_DEFAULTS, **train}

    ratios = cfg.get("ratios", [0.8, 0.1, 0.1])
    if not isinstance(ratios, list) or len(ratios) != 3:
        raise ConfigError("ratios must be [train, val, test]")
    out["ratios"] = ratios

    seeds = cfg.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or any(
            not isinstance(s, int) or s < 0 for s in seeds):
        raise ConfigError("seeds must be a non-empty list of non-negative integers")
    out["seeds"] = seeds

    counts = cfg.get("expert_counts", [2, 4, 6, 8])
    if not isinstance(counts, list) or not counts or any(
            not isinstance(c, int) or c < 1 for c in counts):
        raise ConfigError("expert_counts must be a non-empty list of positive integers")
    out["expert_counts"] = counts
    return out


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _parse_seeds(arg: str | None, resolved: dict) -> list[int]:
    if arg is None:
        return resolved["seeds"]
    try:
        seeds = [int(s) for s in arg.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seed expects comma-separated integers, got {arg!r}")
    if not seeds or any(s < 0 for s in seeds):
        raise ConfigError("--seed expects non-negative integers")
    return seeds


def _prepare_out(path: str, force: bool) -> str:
    if os.path.exists(path):
        if not force and os.listdir(path):
            raise ConfigError(
                f"output directory {path!r} exists and is not empty; use --force")
    os.makedirs(path, exist_ok=True)
    return path


def _dataset_for_seed(resolved: dict, seed: int):
    data = resolved["data"]
    if "csv" in data:
        return load_csv(data["csv"])
    synth = dict(data["synthetic"])
    if not data.get("seed_pinned"):
        synth["seed"] = seed
    return generate_synthetic(SyntheticSpec(**synth))


def _train_config(resolved: dict, seed: int) -> TrainConfig:
    t = resolved["train"]
    return TrainConfig(
        lr=t["lr"], gate_lr=t["gate_lr"], batch_size=t["batch_size"],
        epochs=tuple(t["epochs"]), beta1=t["beta1"], beta2=t["beta2"],
        adam_eps=t["adam_eps"], seed=seed, patience=t["patience"],
        balanced_phase3=t["balanced_phase3"])


def _adapter_config(resolved: dict, experts_per_domain: int | None = None) -> AdapterConfig:
    a = dict(resolved["adapter"])
    if experts_per_domain is not None:
        a["experts_per_domain"] = experts_per_domain
    return AdapterConfig(**a)


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _write_resolved(resolved: dict, out: str) -> None:
    with open(os.path.join(out, "config.resolved.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_one(resolved: dict, mode: str, seed: int, out_dir: str | None,
             experts_per_domain: int | None = None):
    ds = _dataset_for_seed(resolved, seed)
    cfg = _train_config(resolved, seed)
    adapter = _adapter_config(resolved, experts_per_domain)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    result = train_pipeline(cfg, ds, resolved["arch"], mode, adapter,
                            hidden=tuple(resolved["hidden"]),
                            ratios=tuple(resolved["ratios"]), out_dir=out_dir,
                            embedding_dim=resolved["embedding_dim"])
    result.metrics.context = {
        "arch": resolved["arch"], "mode": mode, "seed": seed,
        "config_hash": config_hash(resolved),
    }
    if experts_per_domain is not None:
        result.metrics.context["experts_per_domain"] = experts_per_domain
    if out_dir is not None:
        result.metrics.write_jsonl(os.path.join(out_dir, "metrics.jsonl"))
        with open(os.path.join(out_dir, "phases.jsonl"), "w", encoding="utf-8") as fh:
            for rep in result.phases:
                fh.write(json.dumps(rep.to_record(), sort_keys=True) + "\n")
    return result


# ---- commands --------------------------------------------------------------


def cmd_generate(args) -> int:
    resolved = resolve_config(load_config(args.config), "generate")
    seeds = _parse_seeds(args.seed, resolved)
    out = _prepare_out(args.out, args.force)
    _write_resolved(resolved, out)
    chash = config_hash(resolved)
    for seed in seeds:
        synth = dict(resolved["data"]["synthetic"])
        if not resolved["data"].get("seed_pinned"):
            synth["seed"] = seed
        spec = SyntheticSpec(**synth)
        path = os.path.join(out, f"data_seed{seed}.csv")
        ds = write_synthetic(spec, path)
        sp = sparsity(ds)
        _emit({"record": "dataset", "path": path, "rows": len(ds),
               "n_domains": ds.schema.n_domains, "sparsity": sp.overall,
               "positive_rate": float(ds.labels.mean()),
               "seed": spec.seed, "config_hash": chash})
    return 0


def cmd_train(args) -> int:
    resolved = resolve_config(load_config(args.config), "train")
    seeds = _parse_seeds(args.seed, resolved)
    out = _prepare_out(args.out, args.force)
    _write_resolved(resolved, out)
    waucs = []
    for seed in seeds:
        res = _run_one(resolved, resolved["mode"], seed,
                       os.path.join(out, f"seed{seed}"))
        for rec in res.metrics.to_records():
            _emit(rec)
        waucs.append(res.metrics.wauc)
    _emit({"record": "seed_mean", "arch": resolved["arch"],
           "mode": resolved["mode"], "seeds": seeds,
           "wauc_mean": float(np.mean(waucs)),
           "config_hash": config_hash(resolved)})
    return 0


def cmd_compare(args) -> int:
    resolved = resolve_config(load_config(args.config), "compare")
    seeds = _parse_seeds(args.seed, resolved)
    out = _prepare_out(args.out, args.force)
    _write_resolved(resolved, out)
    chash = config_hash(resolved)
    rows = []
    for mode in resolved["modes"]:
        for seed in seeds:
            res = _run_one(resolved, mode, seed,
                           os.path.join(out, f"{mode}_seed{seed}"))
            rows.append({"arch": resolved["arch"], "mode": mode, "seed": seed,
                         "wauc": res.metrics.wauc})
    means = {m: float(np.mean([r["wauc"] for r in rows if r["mode"] == m]))
             for m in resolved["modes"]}
    baseline = means.get("mlora")
    with open(os.path.join(out, "compare.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["arch", "mode", "seed", "wauc", "config_hash"])
        for r in rows:
            w.writerow([r["arch"], r["mode"], r["seed"], repr(r["wauc"]), chash])
    for mode in resolved["modes"]:
        rec = {"record": "mode_mean", "arch": resolved["arch"], "mode": mode,
               "seeds": seeds, "wauc_mean": means[mode], "config_hash": chash}
        if baseline is not None and mode != "mlora":
            rec["delta_vs_mlora"] = means[mode] - baseline
        _emit(rec)
    return 0


def cmd_sweep_experts(args) -> int:
    resolved = resolve_config(load_config(args.config), "sweep-experts")
    seeds = _parse_seeds(args.seed, resolved)
    out = _prepare_out(args.out, args.force)
    _write_resolved(resolved, out)
    chash = config_hash(resolved)
    probe = _dataset_for_seed(resolved, seeds[0])
    n_domains = probe.schema.n_domains
    for count in resolved["expert_counts"]:
        if count % n_domains != 0:
            raise ConfigError(
                f"expert count {count} is not a multiple of the {n_domains} domains")
    rows = []
    for count in resolved["expert_counts"]:
        per_domain = count // n_domains
        for seed in seeds:
            res = _run_one(resolved, "moe", seed,
                           os.path.join(out, f"experts{count}_seed{seed}"),
                           experts_per_domain=per_domain)
            rows.append((count, seed, res.metrics.wauc))
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["experts_total", "experts_per_domain", "seed", "wauc", "config_hash"])
        for count, seed, value in rows:
            w.writerow([count, count // n_domains, seed, repr(value), chash])
    for count in resolved["expert_counts"]:
        mean = float(np.mean([v for c, _, v in rows if c == count]))
        _emit({"record": "sweep_point", "experts_total": count,
               "wauc_mean": mean, "seeds": seeds, "config_hash": chash})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="moectr",
        description="Multi-domain CTR training with mixture-of-expert adapters")
    sub = p.add_subparsers(dest="command", required=True)
    specs = [
        ("generate", cmd_generate, "write synthetic dataset CSVs"),
        ("train", cmd_train, "train one mode and report test metrics"),
        ("compare", cmd_compare, "train several modes and tabulate weighted AUC"),
        ("sweep-experts", cmd_sweep_experts, "vary the total expert count"),
    ]
    for name, fn, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", default=None,
                        help="comma-separated seeds overriding the config")
        sp.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty output directory")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        phase = f" (phase {e.phase})" if e.phase is not None else ""
        print(f"numeric failure{phase}: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
