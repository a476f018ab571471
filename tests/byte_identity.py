"""Golden outputs of nine small pipelines, for the byte-identity test.

Each pipeline trains on one small synthetic dataset (2 domains, 1,400
rows, ``hidden=(8, 6)``, epochs (3, 3, 3)) and writes what the CLI's
``train`` writes: ``phases.jsonl``, ``metrics.jsonl`` and one
``phase*.npz`` per phase.  ``tests/test_byte_identity.py`` reruns them and
compares against ``tests/fixtures/byte_identity.json``: the sha256 of each
file and of the test-split predictions, and the predictions themselves.

A change that means to alter outputs regenerates the fixture:

    PYTHONPATH=src python tests/byte_identity.py

It prints each file hash and prediction hash that differs from the fixture
it replaces, as ``<pipeline>/<file>`` or ``<pipeline> predictions_sha256``,
or ``nothing moved``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

from moectr.data import SyntheticSpec, generate_synthetic, split_dataset
from moectr.training import TrainConfig, train_pipeline

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "byte_identity.json")
SPEC = SyntheticSpec(n_domains=2, n_users=150, n_items=80, rows_per_domain=700,
                     divergence=0.6, seed=0)
CFG = TrainConfig(lr=5e-3, gate_lr=2e-2, batch_size=64, epochs=(3, 3, 3), seed=0)
HIDDEN = (8, 6)

# name -> (arch, mode), each with the default adapter config
PIPELINES = {f"{arch}-{mode}": (arch, mode)
             for arch in ("mlp", "wdl", "deepfm") for mode in ("plain", "mlora", "moe")}


def _blas_core() -> str | None:
    """The kernel family a bundled OpenBLAS picked for this CPU, if it says."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _exp_target() -> str:
    """The SIMD target numpy dispatches float64 exp to: the sigmoid's bits follow it."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2
        return "unknown"
    found = opt_func_info(func_name="^exp$", signature="float64")
    return " ".join(sorted({sig["current"] for sigs in found.values()
                            for sig in sigs.values()})) or "unknown"


def fingerprint() -> dict:
    """What the bits of a float64 matmul and exp depend on besides this code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 returns no dict; some builds no BLAS
        build = None
    return {"numpy": np.__version__, "blas": build, "blas_core": _blas_core(),
            "exp_target": _exp_target(), "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name: str, out_dir: str) -> dict:
    """Train one pipeline into ``out_dir``; its file hashes and predictions."""
    arch, mode = PIPELINES[name]
    dataset = generate_synthetic(SPEC)
    result = train_pipeline(CFG, dataset, arch, mode, hidden=HIDDEN,
                            out_dir=out_dir)
    result.metrics.write_jsonl(os.path.join(out_dir, "metrics.jsonl"))
    with open(os.path.join(out_dir, "phases.jsonl"), "w", encoding="utf-8") as fh:
        for rep in result.phases:
            fh.write(json.dumps(rep.to_record(), sort_keys=True) + "\n")
    test = split_dataset(dataset, seed=CFG.seed)[2]
    preds = np.empty(len(test))
    for d in range(SPEC.n_domains):
        rows = test.rows_of_domain(d)
        preds[rows] = result.model.predict(test.ids[rows], d)
    files = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            files[fname] = _sha256(fh.read())
    return {"files": files, "predictions_sha256": _sha256(preds.tobytes()),
            "predictions": preds.tolist()}


def moved(old: dict, new: dict) -> list[str]:
    """The hashes that differ between two fixtures' ``pipelines``, sorted by pipeline."""
    out = []
    for name in sorted(set(old) | set(new)):
        was, now = old.get(name, {}), new.get(name, {})
        files_was, files_now = was.get("files", {}), now.get("files", {})
        out += [f"{name}/{f}" for f in sorted(set(files_was) | set(files_now))
                if files_was.get(f) != files_now.get(f)]
        if was.get("predictions_sha256") != now.get("predictions_sha256"):
            out.append(f"{name} predictions_sha256")
    return out


def main() -> int:
    old = {"platform": None, "pipelines": {}}
    if os.path.exists(FIXTURE):
        with open(FIXTURE, encoding="utf-8") as fh:
            old = json.load(fh)
    pipelines = {}
    for name in PIPELINES:
        with tempfile.TemporaryDirectory() as tmp:
            pipelines[name] = run(name, tmp)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump({"platform": fingerprint(), "pipelines": pipelines}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pipelines)} pipelines to {FIXTURE}")
    if old["platform"] != fingerprint():
        print(f"platform changed from {old['platform']} to {fingerprint()}")
    print("\n".join(moved(old["pipelines"], pipelines)) or "nothing moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
