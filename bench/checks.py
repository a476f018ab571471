"""Output checks made apart from the program.

Every check reads what it needs from plain arrays: checkpoints are opened
with ``np.load`` and their JSON manifest, never with ``load_checkpoint``, and
the forward pass and the AUC are written here again in plain numpy.  A
check raises ``CheckError`` naming itself when an output is wrong.

Tolerances allow a change that reorders floating-point sums (a fused expert
matmul, say) and nothing more: such a change moves a probability by a few
units in the last place, far below ``PRED_ATOL``; a real change of one
weight moves it by many orders of magnitude more.
"""

from __future__ import annotations

import json

import numpy as np

# Largest |p_model - p_reference| accepted for a predicted probability.
PRED_ATOL = 1e-12
# Largest |reported - recomputed| accepted for a weighted AUC.
WAUC_ATOL = 1e-12
# Every domain's test AUC must reach 0.5 + AUC_MARGIN.
AUC_MARGIN = 0.05


class CheckError(AssertionError):
    """An output check failed; the message names which one."""

    def __init__(self, check: str, message: str):
        super().__init__(f"check {check} failed: {message}")


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(manifest, {parameter name: array}) of a checkpoint file."""
    with np.load(path) as z:
        manifest = json.loads(z["manifest"].tobytes().decode("utf-8"))
        params = {rec["name"]: z[rec["key"]] for rec in manifest["params"]}
    return manifest, params


def _groups(manifest: dict) -> dict[str, str]:
    return {rec["name"]: rec["group"] for rec in manifest["params"]}


def _expert_keys(manifest: dict) -> list[tuple[int, int]]:
    per_domain = manifest["adapter"]["experts_per_domain"] if manifest["mode"] == "moe" else 1
    return [(d, k) for d in range(manifest["schema"]["n_domains"]) for k in range(per_domain)]


def reference_predict(manifest: dict, params: dict[str, np.ndarray],
                      ids: np.ndarray, domain: int) -> np.ndarray:
    """Click probabilities of an ``mlp`` model, in plain numpy.

    Each layer computes x Wᵀ + b + Σ_j w_j·(α/r)·(x A_jᵀ) B_jᵀ, where w is the
    softmax of the domain's gate-logit row (``moe``) or the domain's one-hot
    (``mlora``); the tower uses relu and the head a sigmoid.
    """
    adapter = manifest["adapter"]
    if manifest["arch"] != "mlp" or manifest["mode"] not in ("moe", "mlora"):
        raise ValueError("reference forward covers arch 'mlp' in modes 'moe' and 'mlora' only")
    if adapter["gate_includes_backbone"] or adapter["gate_input_conditioned"] \
            or adapter["gate_force_one_hot"]:
        raise ValueError("reference forward covers plain per-domain softmax gates only")
    fields = [name for name, _ in manifest["schema"]["fields"]]
    x = np.concatenate([params[f"emb.{name}"][ids[:, f]] for f, name in enumerate(fields)],
                       axis=1)
    experts = _expert_keys(manifest)
    scaling = adapter["alpha"] / adapter["rank"]
    names = [f"tower.{i}" for i in range(len(manifest["hidden"]))] + ["head"]
    for name in names:
        pre = x @ params[f"{name}.W"].T + params[f"{name}.b"]
        if manifest["mode"] == "moe":
            row = params[f"{name}.gate.logits"][domain]
            e = np.exp(row - row.max())
            w = e / e.sum()
        else:
            w = np.array([1.0 if d == domain else 0.0 for d, _ in experts])
        for j, (d, k) in enumerate(experts):
            a = params[f"{name}.e{d}.{k}.A"]
            b = params[f"{name}.e{d}.{k}.B"]
            pre = pre + w[j] * scaling * ((x @ a.T) @ b.T)
        x = np.maximum(pre, 0.0) if name != "head" else pre
    return 1.0 / (1.0 + np.exp(-x[:, 0]))


def pair_auc(labels: np.ndarray, scores: np.ndarray) -> float | None:
    """Share of (positive, negative) pairs ranked right, ties counting half.

    Pairs are counted in integers after one sort; ``None`` when a class is
    missing.
    """
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(scores, kind="stable")
    s = np.asarray(scores)[order]
    y = labels[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    pos = np.add.reduceat(y, starts)
    neg = np.add.reduceat(1 - y, starts)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        return None
    neg_below = np.cumsum(neg) - neg
    twice_right = int(np.sum(pos * (2 * neg_below + neg)))
    return twice_right / (2 * n_pos * n_neg)


def weighted_pair_auc(labels_by_domain: list[np.ndarray],
                      scores_by_domain: list[np.ndarray]) -> float:
    """Row-count-weighted mean of the per-domain ``pair_auc``."""
    num, den = 0.0, 0
    for y, s in zip(labels_by_domain, scores_by_domain):
        a = pair_auc(y, s)
        if a is not None:
            num += a * y.size
            den += y.size
    if den == 0:
        raise ValueError("no domain has both label classes")
    return num / den


def check_forward(manifest, params, cases) -> tuple[list[np.ndarray], float]:
    """(a) model predictions equal the reference forward within PRED_ATOL.

    ``cases`` is a list of (ids, domain, model probabilities); returns the
    reference probabilities in the same order and the largest difference.
    """
    refs, worst = [], 0.0
    for ids, domain, probs in cases:
        ref = reference_predict(manifest, params, ids, domain)
        if ref.shape != probs.shape:
            raise CheckError("a-forward", f"domain {domain}: {probs.shape} predictions, "
                                          f"reference has {ref.shape}")
        worst = max(worst, float(np.max(np.abs(ref - probs), initial=0.0)))
        refs.append(ref)
    if not worst <= PRED_ATOL:
        raise CheckError("a-forward", f"max |model - reference| = {worst:.3e} > {PRED_ATOL:.0e}")
    return refs, worst


def check_wauc(label: str, reported: float, labels_by_domain, ref_scores_by_domain) -> None:
    """(b) a reported weighted AUC equals the pair-counted one within WAUC_ATOL."""
    expected = weighted_pair_auc(labels_by_domain, ref_scores_by_domain)
    if not abs(reported - expected) <= WAUC_ATOL:
        raise CheckError("b-wauc", f"{label}: reported {reported!r}, pair count gives "
                                   f"{expected!r} (|diff| {abs(reported - expected):.3e})")


def _changed(before: dict, after: dict) -> set[str]:
    return {n for n in after if before[n].tobytes() != after[n].tobytes()}


def check_freeze(phases: list[tuple[dict, dict]]) -> None:
    """(c) the freeze schedule, read from the per-phase checkpoints.

    ``phases`` holds (manifest, params) after phase 1, 2 and, for ``moe``, 3.
    """
    manifest, p1 = phases[0]
    groups = _groups(manifest)
    expert_b = [n for n, g in groups.items() if g.startswith("expert(") and n.endswith(".B")]
    gates = [n for n, g in groups.items() if g == "gate"]
    if not expert_b:
        raise CheckError("c-freeze", "model has no expert B tensors")
    if manifest["mode"] == "moe" and not gates:
        raise CheckError("c-freeze", "moe model has no gate tables")
    moved = [n for n in expert_b if np.any(p1[n] != 0.0)]
    if moved:
        raise CheckError("c-freeze", f"after phase 1, expert B not zero: {moved[:3]}")
    moved = [n for n in gates if np.any(p1[n] != 0.0)]
    if moved:
        raise CheckError("c-freeze", f"after phase 1, gate table not at its zero init: {moved[:3]}")
    p2 = phases[1][1]
    changed = _changed(p1, p2)
    wrong = sorted(n for n in changed if not groups[n].startswith("expert("))
    if wrong:
        raise CheckError("c-freeze", f"phase 2 changed non-expert tensors: {wrong[:3]}")
    still = sorted(n for n in expert_b if n not in changed)
    if still:
        raise CheckError("c-freeze", f"phase 2 left expert B unchanged: {still[:3]}")
    if len(phases) > 2:
        wrong = sorted(n for n in _changed(p2, phases[2][1]) if groups[n] != "gate")
        if wrong:
            raise CheckError("c-freeze", f"phase 3 changed non-gate tensors: {wrong[:3]}")


def check_round_trip(trained: list[np.ndarray], reloaded: list[np.ndarray]) -> None:
    """(d) the reloaded checkpoint predicts bit-identically to the trained model."""
    for d, (a, b) in enumerate(zip(trained, reloaded)):
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            diff = np.max(np.abs(a - b)) if a.shape == b.shape else float("nan")
            raise CheckError("d-round-trip", f"domain {d}: reloaded predictions differ "
                                             f"(max |diff| {diff:.3e})")
    if len(trained) != len(reloaded):
        raise CheckError("d-round-trip", "domain counts differ")


def check_quality(per_domain_auc: list[float | None]) -> None:
    """(e) every domain's test AUC beats chance by AUC_MARGIN."""
    floor = 0.5 + AUC_MARGIN
    low = [(d, a) for d, a in enumerate(per_domain_auc) if a is None or not a >= floor]
    if low:
        raise CheckError("e-quality", f"test AUC below {floor}: {low}")
