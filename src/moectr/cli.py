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

from .data import (DEFAULT_RATIOS, SyntheticSpec, _check_ratios, generate_synthetic, load_csv,
                   write_synthetic)
from .metrics import sparsity
from .models import (DEFAULT_HIDDEN, ARCHS, MODES, AdapterConfig, _check_count,
                     _check_mode, _check_widths, _is_number)
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


def _refuse_repeats(where: str, values: list) -> None:
    """Refuse a list that names one value twice: it would rerun one pipeline."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{where} lists {v!r} more than once")


def _check_ints(where: str, values, least: int) -> list:
    """``values`` if it is a non-empty list of distinct integers, each at least ``least``."""
    if not isinstance(values, list) or not values or any(
            not _is_number(v, whole=True) or v < least for v in values):
        kind = {0: "non-negative", 1: "positive"}[least]
        raise ConfigError(f"{where} must be a non-empty list of {kind} integers, "
                          f"got {json.dumps(values)}")
    _refuse_repeats(where, values)
    return values


def _section(parent: dict, key: str, defaults: dict, where: str) -> dict:
    """``parent[key]``: a JSON object whose keys are among ``defaults``."""
    section = parent.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {json.dumps(section)}")
    _check_keys(section, defaults, where)
    return dict(section)


def _named(where: str, check, *args, **kwargs) -> None:
    """Run the check of the object that reads a value; name ``where`` in its error."""
    try:
        check(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}{e}") from None


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
        synth = _section(data, "synthetic", {**SYNTH_DEFAULTS, "seed": 0}, "data.synthetic")
        merged = {**SYNTH_DEFAULTS, **synth}
        _named("data.synthetic.", SyntheticSpec, **{"seed": 0, **merged})
        out["data"] = {"synthetic": merged, "seed_pinned": "seed" in synth}
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
    _refuse_repeats("modes", modes)
    out["modes"] = modes

    hidden = cfg.get("hidden", list(DEFAULT_HIDDEN))
    if not isinstance(hidden, list):
        raise ConfigError(f"hidden must be a list of tower widths, got {json.dumps(hidden)}")
    _named("", _check_widths, hidden)
    out["hidden"] = hidden

    emb = cfg.get("embedding_dim")
    if emb is not None:
        _named("", _check_count, "embedding_dim", emb)
    out["embedding_dim"] = emb

    adapter = _section(cfg, "adapter", ADAPTER_DEFAULTS, "adapter")
    out["adapter"] = {**ADAPTER_DEFAULTS, **adapter}
    _named("adapter.", AdapterConfig, **out["adapter"])
    for m in {"train": [mode], "compare": modes}.get(command, []):
        _named("adapter.", _check_mode, m, AdapterConfig(**out["adapter"]))

    train = _section(cfg, "train", TRAIN_DEFAULTS, "train")
    out["train"] = {**TRAIN_DEFAULTS, **train}
    _named("train.", TrainConfig, **out["train"])

    out["ratios"] = cfg.get("ratios", list(DEFAULT_RATIOS))
    _named("", _check_ratios, out["ratios"])

    out["seeds"] = _check_ints("seeds", cfg.get("seeds", [0]), 0)
    out["expert_counts"] = _check_ints("expert_counts", cfg.get("expert_counts", [2, 4, 6, 8]), 1)
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
    return _check_ints("--seed", seeds, 0)


def _prepare_out(path: str, force: bool) -> str:
    if os.path.exists(path):
        if not force and os.listdir(path):
            raise ConfigError(
                f"output directory {path!r} exists and is not empty; use --force")
    os.makedirs(path, exist_ok=True)
    return path


def _synthetic_spec(resolved: dict, seed: int) -> SyntheticSpec:
    """The synthetic spec for a run seed; a seed pinned in the config wins."""
    return SyntheticSpec(**{"seed": seed, **resolved["data"]["synthetic"]})


def _dataset_source(resolved: dict):
    """seed -> Dataset.  A CSV source is parsed here, once per command."""
    data = resolved["data"]
    if "csv" in data:
        ds = load_csv(data["csv"])
        return lambda seed: ds
    return lambda seed: generate_synthetic(_synthetic_spec(resolved, seed))


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _write_resolved(resolved: dict, out: str) -> None:
    with open(os.path.join(out, "config.resolved.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_grid(resolved: dict, seeds: list[int], out: str, cells: list, dataset):
    """Train each cell at each seed and write the run's directory; yield its metrics.

    ``dataset`` maps a seed to its data.  A cell is (directory prefix, mode,
    adapter overrides).  Runs go cell by cell and, within a cell, seed by
    seed.  Each writes its checkpoints, ``metrics.jsonl`` and
    ``phases.jsonl`` into ``out/<prefix>seed<S>/``, its metrics context
    naming the overrides, and then yields (cell index, seed, MetricsReport).
    """
    chash = config_hash(resolved)
    for i, (prefix, mode, overrides) in enumerate(cells):
        adapter = AdapterConfig(**{**resolved["adapter"], **overrides})
        for seed in seeds:
            ds = dataset(seed)
            run_dir = os.path.join(out, f"{prefix}seed{seed}")
            os.makedirs(run_dir, exist_ok=True)
            result = train_pipeline(TrainConfig(**resolved["train"], seed=seed), ds,
                                    resolved["arch"], mode, adapter,
                                    hidden=resolved["hidden"], ratios=resolved["ratios"],
                                    out_dir=run_dir, embedding_dim=resolved["embedding_dim"])
            result.metrics.context.update(config_hash=chash, **overrides)
            result.metrics.write_jsonl(os.path.join(run_dir, "metrics.jsonl"))
            with open(os.path.join(run_dir, "phases.jsonl"), "w", encoding="utf-8") as fh:
                for rep in result.phases:
                    fh.write(json.dumps(rep.to_record(), sort_keys=True) + "\n")
            yield i, seed, result.metrics


# ---- commands --------------------------------------------------------------


def cmd_generate(args) -> int:
    resolved = resolve_config(load_config(args.config), "generate")
    seeds = _parse_seeds(args.seed, resolved)
    out = _prepare_out(args.out, args.force)
    _write_resolved(resolved, out)
    chash = config_hash(resolved)
    for seed in seeds:
        spec = _synthetic_spec(resolved, seed)
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
    cells = [("", resolved["mode"], {})]
    for _, _, metrics in _run_grid(resolved, seeds, out, cells, _dataset_source(resolved)):
        for rec in metrics.to_records():
            _emit(rec)
        waucs.append(metrics.wauc)
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
    modes = resolved["modes"]
    cells = [(f"{mode}_", mode, {}) for mode in modes]
    grid = _run_grid(resolved, seeds, out, cells, _dataset_source(resolved))
    rows = [(modes[i], seed, m.wauc) for i, seed, m in grid]
    means = {m: float(np.mean([v for mode, _, v in rows if mode == m])) for m in modes}
    baseline = means.get("mlora")
    with open(os.path.join(out, "compare.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["arch", "mode", "seed", "wauc", "config_hash"])
        for mode, seed, value in rows:
            w.writerow([resolved["arch"], mode, seed, repr(value), chash])
    for mode in modes:
        rec = {"record": "mode_mean", "arch": resolved["arch"], "mode": mode,
               "seeds": seeds, "wauc_mean": means[mode], "config_hash": chash}
        if baseline is not None and mode != "mlora":
            rec["delta_vs_mlora"] = means[mode] - baseline
        _emit(rec)
    return 0


def cmd_sweep_experts(args) -> int:
    resolved = resolve_config(load_config(args.config), "sweep-experts")
    seeds = _parse_seeds(args.seed, resolved)
    dataset = _dataset_source(resolved)
    n_domains = dataset(seeds[0]).schema.n_domains
    counts = resolved["expert_counts"]
    for count in counts:
        if count % n_domains != 0:
            raise ConfigError(
                f"expert count {count} is not a multiple of the {n_domains} domains")
    out = _prepare_out(args.out, args.force)
    _write_resolved(resolved, out)
    chash = config_hash(resolved)
    cells = [(f"experts{n}_", "moe", {"experts_per_domain": n // n_domains}) for n in counts]
    grid = _run_grid(resolved, seeds, out, cells, dataset)
    rows = [(counts[i], seed, m.wauc) for i, seed, m in grid]
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["experts_total", "experts_per_domain", "seed", "wauc", "config_hash"])
        for count, seed, value in rows:
            w.writerow([count, count // n_domains, seed, repr(value), chash])
    for count in counts:
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
