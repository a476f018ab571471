"""End-to-end checks of the command line interface."""

import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from importlib import metadata
from pathlib import Path

import pytest

import moectr
from moectr import cli
from moectr.cli import ConfigError, config_hash, resolve_config

TINY_SYNTH = {
    "n_domains": 2, "n_users": 60, "n_items": 40, "rows_per_domain": 150,
    "divergence": 0.5, "noise_scale": 0.3,
}
FAST_TRAIN = {"batch_size": 64, "epochs": [2, 1, 1], "patience": 5}
SUBCOMMANDS = ("generate", "train", "compare", "sweep-experts")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
# What pip writes for a console_scripts entry point: load the target, call it
# with no arguments, exit with its return value.  argv: name, value, args...
WRAPPER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "ep = EntryPoint(name=sys.argv[1], value=sys.argv[2], group='console_scripts')\n"
    "sys.argv[:3] = [ep.name]\n"
    "sys.exit(ep.load()())\n"
)


def write_cfg(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, records, captured.err


def test_generate_writes_csv_and_sidecar(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"data": {"synthetic": TINY_SYNTH}, "seeds": [3, 4]})
    out = tmp_path / "gen"
    code, records, _ = run(["generate", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    for seed in (3, 4):
        assert (out / f"data_seed{seed}.csv").exists()
        assert (out / f"data_seed{seed}.csv.spec.json").exists()
    assert (out / "config.resolved.json").exists()
    assert [r["seed"] for r in records] == [3, 4]
    assert all(r["rows"] == 300 and r["n_domains"] == 2 for r in records)
    assert all(0.0 < r["sparsity"] < 1.0 for r in records)


def test_generate_pinned_seed_ignores_run_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"data": {"synthetic": {**TINY_SYNTH, "seed": 9}}})
    out = tmp_path / "gen"
    code, records, _ = run(
        ["generate", "--config", cfg, "--out", str(out), "--seed", "0,1"], capsys)
    assert code == 0
    assert [r["seed"] for r in records] == [9, 9]
    a = (out / "data_seed0.csv").read_bytes()
    b = (out / "data_seed1.csv").read_bytes()
    assert a == b


def test_train_plain_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "data": {"synthetic": TINY_SYNTH},
        "mode": "plain", "train": FAST_TRAIN, "hidden": [8, 6],
    })
    out = tmp_path / "run"
    code, records, _ = run(["train", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    seed_dir = out / "seed0"
    assert (seed_dir / "metrics.jsonl").exists()
    assert (seed_dir / "phases.jsonl").exists()
    assert (seed_dir / "phase1.npz").exists()
    kinds = [r["record"] for r in records]
    assert kinds.count("domain") == 2
    assert "summary" in kinds and kinds[-1] == "seed_mean"
    summary = next(r for r in records if r["record"] == "summary")
    assert 0.0 <= summary["wauc"] <= 1.0
    assert summary["mode"] == "plain" and summary["seed"] == 0
    assert len(summary["config_hash"]) == 16


def test_train_stamps_hash_in_files_and_stdout(tmp_path, capsys):
    body = {"data": {"synthetic": TINY_SYNTH}, "mode": "plain",
            "train": FAST_TRAIN, "hidden": [8, 6]}
    cfg = write_cfg(tmp_path, body)
    expected = config_hash(resolve_config(body, "train"))
    out = tmp_path / "run"
    code, records, _ = run(["train", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    assert all(r["config_hash"] == expected for r in records)
    lines = (out / "seed0" / "metrics.jsonl").read_text().splitlines()
    assert all(json.loads(ln)["config_hash"] == expected for ln in lines)


def test_config_hash_changes_with_content():
    base = {"data": {"synthetic": TINY_SYNTH}}
    tweaked = {"data": {"synthetic": TINY_SYNTH}, "train": {"lr": 5e-4}}
    h0 = config_hash(resolve_config(base, "train"))
    h1 = config_hash(resolve_config(tweaked, "train"))
    assert h0 != h1
    assert h0 == config_hash(resolve_config(dict(base), "train"))


@pytest.mark.parametrize("body,expected", [
    ({"data": {"synthetic": {}}}, "863c9302b4119d99"),
    # The README's example session.
    ({"data": {"synthetic": {"n_domains": 4, "n_users": 2000, "n_items": 2500,
                             "rows_per_domain": 12500, "divergence": 0.8,
                             "noise_scale": 0.05}},
      "embedding_dim": 4, "adapter": {"rank": 8, "alpha": 8.0},
      "train": {"lr": 0.003, "gate_lr": 0.05, "epochs": [10, 14, 20], "patience": 4}},
     "db7b0b3202d1d46e"),
])
def test_config_hash_is_pinned(body, expected):
    # A change to resolution must not silently re-stamp every earlier run.
    assert config_hash(resolve_config(body, "compare")) == expected


def test_readme_lists_every_config_key_with_its_default():
    text = README.read_text(encoding="utf-8")
    block = text.split("All keys and their defaults:", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//.*", "", block))
    resolved = resolve_config({"data": {"synthetic": {"seed": 0}}}, "compare")
    resolved = json.loads(json.dumps(resolved))
    data = doc.pop("data")
    assert set(data) == {"csv", "synthetic"}
    assert data["synthetic"] == resolved.pop("data")["synthetic"]
    assert doc == resolved


def test_refuses_nonempty_out_without_force(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"data": {"synthetic": TINY_SYNTH}})
    out = tmp_path / "gen"
    assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    code, _, err = run(["generate", "--config", cfg, "--out", str(out)], capsys)
    assert code == 2
    assert "--force" in err
    code, records, _ = run(
        ["generate", "--config", cfg, "--out", str(out), "--force"], capsys)
    assert code == 0 and records


def test_exit_2_on_config_problems(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["train", "--config", missing, "--out", str(tmp_path / "a")]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.main(["train", "--config", str(bad_json), "--out", str(tmp_path / "b")]) == 2
    unknown = write_cfg(tmp_path, {"data": {"synthetic": TINY_SYNTH}, "lr": 0.1}, "u.json")
    assert cli.main(["train", "--config", unknown, "--out", str(tmp_path / "c")]) == 2
    bad_arch = write_cfg(
        tmp_path, {"data": {"synthetic": TINY_SYNTH}, "arch": "tide"}, "a.json")
    assert cli.main(["train", "--config", bad_arch, "--out", str(tmp_path / "d")]) == 2
    ok = write_cfg(tmp_path, {"data": {"synthetic": TINY_SYNTH}}, "ok.json")
    assert cli.main(["train", "--config", ok, "--out", str(tmp_path / "e"),
                     "--seed", "1,x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command,body,extra,named", [
    ("train", [1, 2], [], "config must be a JSON object"),
    ("generate", {"data": {"csv": "x.csv"}}, [], "generate needs data.synthetic"),
    ("train", {"data": {"csv": "x.csv", "synthetic": TINY_SYNTH}}, [],
     "either csv or synthetic"),
    ("train", {"data": {"synthetic": TINY_SYNTH}, "mode": "mmoe"}, [], "mode must be one of"),
    ("compare", {"data": {"synthetic": TINY_SYNTH}, "modes": ["plain", "x"]}, [],
     "modes must be a non-empty subset"),
    ("train", {"data": {"synthetic": TINY_SYNTH}}, ["--seed=-1"], "non-negative integers"),
    # The value rows below are ConfigErrors raised by resolve_config, each naming
    # section.key; the missing CSV is not: it fails at load, and main maps its
    # OSError to exit 2.
    ("train", {"data": {"synthetic": TINY_SYNTH}, "train": {"lr": 0.0}}, [],
     "lr must be a finite positive number, got 0.0"),
    ("train", {"data": {"csv": "no-such-dir/missing.csv"}}, [], "No such file"),
    ("train", {"data": {"synthetic": TINY_SYNTH}, "train": {"lr": float("nan")}}, [],
     "lr must be a finite positive number, got nan"),
    ("train", {"data": {"synthetic": TINY_SYNTH}}, ["--seed", "1,0,1"],
     "--seed lists 1 more than once"),
    ("train", {"data": {"synthetic": TINY_SYNTH}, "adapter": {"alpha": 0.0}}, [],
     "alpha must be a finite positive number, got 0.0"),
    ("train", {"data": {"synthetic": TINY_SYNTH}, "ratios": [float("nan"), 0.5, 0.5]}, [],
     "ratios must be three positive numbers summing to 1"),
    ("train", {"data": {"synthetic": {**TINY_SYNTH, "noise_scale": float("inf")}}}, [],
     "noise_scale must be a finite positive number, got inf"),
    # A repeated list entry would train one pipeline twice into one directory.
    ("train", {"data": {"synthetic": TINY_SYNTH}, "seeds": [0, 2, 0]}, [],
     "seeds lists 0 more than once"),
    ("compare", {"data": {"synthetic": TINY_SYNTH}, "modes": ["moe", "plain", "moe"]}, [],
     "modes lists 'moe' more than once"),
    ("sweep-experts", {"data": {"synthetic": TINY_SYNTH}, "expert_counts": [2, 4, 2]}, [],
     "expert_counts lists 2 more than once"),
])
def test_each_config_problem_exits_2_with_its_message(tmp_path, capsys, command, body,
                                                       extra, named):
    cfg = write_cfg(tmp_path, body)
    code, _, err = run([command, "--config", cfg, "--out", str(tmp_path / "out"), *extra],
                       capsys)
    assert code == 2
    assert named in err


def test_unknown_key_message_names_the_key(tmp_path, capsys):
    with pytest.raises(ConfigError, match="gate_lr2"):
        resolve_config({"data": {"csv": "x.csv"}, "train": {"gate_lr2": 1.0}}, "train")
    with pytest.raises(ConfigError, match="csv"):
        resolve_config({}, "train")
    # Options that were removed are unknown keys like any other.
    removed = [("adapter", "gate_force_one_hot"), ("adapter", "gate_includes_backbone"),
               ("adapter", "gate_input_conditioned"), ("train", "balanced_phase3"),
               ("train", "beta1"), ("train", "beta2"), ("train", "adam_eps"),
               ("data.synthetic", "n_user_clusters"), ("data.synthetic", "n_item_clusters")]
    for section, key in removed:
        body = {"data": {"synthetic": TINY_SYNTH}}
        if section == "data.synthetic":
            body["data"] = {"synthetic": {**TINY_SYNTH, key: 4}}
        else:
            body[section] = {key: False}
        cfg = write_cfg(tmp_path, body, f"{key}.json")
        out = tmp_path / key
        code, _, err = run(["train", "--config", cfg, "--out", str(out)], capsys)
        assert code == 2
        assert f"{section}: unknown key(s) {key}; allowed: " in err
        assert not out.exists()


@pytest.mark.parametrize("body,named", [
    ({"ratios": ["a", 0.1, 0.1]}, "ratios"),
    ({"train": {"lr": "x"}}, "train.lr"),
    ({"train": {"epochs": [2, "1", 1]}}, "train.epochs"),
    ({"train": {"patience": True}}, "train.patience"),
    ({"train": []}, "train must be a JSON object"),
    ({"adapter": {"rank": 2.5}}, "adapter.rank"),
    ({"adapter": {"alpha": True}}, "adapter.alpha"),
    ({"data": {"synthetic": {**TINY_SYNTH, "n_users": "60"}}}, "data.synthetic.n_users"),
    ({"data": {"synthetic": {**TINY_SYNTH, "seed": True}}}, "data.synthetic.seed"),
    ({"hidden": [True]}, "hidden"),
    ({"embedding_dim": True}, "embedding_dim"),
    ({"seeds": [False]}, "seeds"),
    ({"expert_counts": [True, 2]}, "expert_counts"),
    ({"train": {"lr": float("nan")}}, "train.lr"),
    ({"adapter": {"alpha": 0.0}}, "adapter.alpha"),
    ({"ratios": [float("nan"), 0.5, 0.5]}, "ratios"),
    ({"data": {"synthetic": {**TINY_SYNTH, "seed": -1}}}, "data.synthetic.seed"),
])
def test_wrongly_typed_values_are_named_config_errors(tmp_path, capsys, body, named):
    cfg = {"data": {"synthetic": TINY_SYNTH}, **body}
    with pytest.raises(ConfigError, match=re.escape(named)):
        resolve_config(cfg, "train")
    code, _, err = run(["train", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2 and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,body", [
    ("train", {"mode": "mlora"}),
    ("compare", {"modes": ["plain", "mlora"]}),
    ("compare", {}),  # the default modes include mlora
])
def test_mlora_with_several_experts_exits_2_before_writing(tmp_path, capsys, command, body):
    cfg = write_cfg(tmp_path, {"data": {"synthetic": TINY_SYNTH},
                               "adapter": {"experts_per_domain": 2}, **body})
    code, records, err = run([command, "--config", cfg, "--out", str(tmp_path / "out")],
                             capsys)
    assert code == 2 and not records
    assert "adapter.experts_per_domain: mlora mode keeps exactly one adapter" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_3_on_numeric_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "data": {"synthetic": TINY_SYNTH}, "mode": "plain", "hidden": [8, 6],
        "train": {**FAST_TRAIN, "lr": 1e160},
    })
    code, _, err = run(["train", "--config", cfg, "--out", str(tmp_path / "boom")], capsys)
    assert code == 3
    assert "phase 1" in err


def test_compare_emits_table_and_deltas(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "data": {"synthetic": TINY_SYNTH}, "modes": ["plain", "mlora"],
        "train": FAST_TRAIN, "hidden": [8, 6],
        "adapter": {"rank": 2},
    })
    out = tmp_path / "cmp"
    code, records, _ = run(["compare", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "arch,mode,seed,wauc,config_hash"
    assert len(lines) == 3
    means = [r for r in records if r["record"] == "mode_mean"]
    assert [m["mode"] for m in means] == ["plain", "mlora"]
    plain = next(m for m in means if m["mode"] == "plain")
    mlora = next(m for m in means if m["mode"] == "mlora")
    assert "delta_vs_mlora" in plain and "delta_vs_mlora" not in mlora
    assert plain["delta_vs_mlora"] == pytest.approx(
        plain["wauc_mean"] - mlora["wauc_mean"], abs=1e-15)


def test_sweep_experts_csv_and_determinism(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "data": {"synthetic": TINY_SYNTH}, "expert_counts": [2, 4],
        "train": FAST_TRAIN, "hidden": [8, 6], "adapter": {"rank": 2},
    })
    out = tmp_path / "sweep"
    code, records, _ = run(["sweep-experts", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    csv_text = (out / "sweep.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "experts_total,experts_per_domain,seed,wauc,config_hash"
    assert len(lines) == 3
    assert lines[1].startswith("2,1,0,") and lines[2].startswith("4,2,0,")
    points = [r for r in records if r["record"] == "sweep_point"]
    assert [p["experts_total"] for p in points] == [2, 4]

    code2, _, _ = run(
        ["sweep-experts", "--config", cfg, "--out", str(out), "--force"], capsys)
    assert code2 == 0
    assert (out / "sweep.csv").read_text() == csv_text


def test_train_compare_and_sweep_run_the_same_pipeline(tmp_path, capsys):
    body = {"data": {"synthetic": TINY_SYNTH}, "train": FAST_TRAIN, "hidden": [8, 6],
            "expert_counts": [2]}

    def out_of(command, name, **extra):
        out = tmp_path / name
        cfg = write_cfg(tmp_path, {**body, **extra}, f"{name}.json")
        assert run([command, "--config", cfg, "--out", str(out)], capsys)[0] == 0
        return out

    def metrics(run_dir, *drop):
        recs = [json.loads(ln) for ln in (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert all(key in rec for rec in recs for key in drop)
        return [{k: v for k, v in rec.items() if k not in ("config_hash", *drop)}
                for rec in recs]

    def assert_same_run(want, got, *drop):
        files = sorted(p.name for p in want.glob("phase*.npz"))
        assert files and files == sorted(p.name for p in got.glob("phase*.npz"))
        for name in files + ["phases.jsonl"]:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name
        assert metrics(got, *drop) == metrics(want)

    compare = out_of("compare", "compare")
    sweep = out_of("sweep-experts", "sweep")
    trains = {mode: out_of("train", f"train_{mode}", mode=mode) / "seed0"
              for mode in ("plain", "mlora", "moe")}
    for mode, train in trains.items():
        assert_same_run(train, compare / f"{mode}_seed0")
    assert_same_run(trains["moe"], sweep / "experts2_seed0", "experts_per_domain")


def test_sweep_rejects_indivisible_counts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "data": {"synthetic": TINY_SYNTH}, "expert_counts": [3],
        "train": FAST_TRAIN,
    })
    code, _, err = run(["sweep-experts", "--config", cfg, "--out", str(tmp_path / "s")],
                       capsys)
    assert code == 2
    assert "multiple" in err
    assert not (tmp_path / "s").exists()


def test_train_on_csv_input(tmp_path, capsys):
    gen_cfg = write_cfg(tmp_path, {"data": {"synthetic": TINY_SYNTH}}, "g.json")
    gen_out = tmp_path / "gen"
    assert cli.main(["generate", "--config", gen_cfg, "--out", str(gen_out)]) == 0
    capsys.readouterr()
    train_cfg = write_cfg(tmp_path, {
        "data": {"csv": str(gen_out / "data_seed0.csv")},
        "mode": "plain", "train": FAST_TRAIN, "hidden": [8, 6],
    }, "t.json")
    code, records, _ = run(
        ["train", "--config", train_cfg, "--out", str(tmp_path / "run")], capsys)
    assert code == 0
    assert records[-1]["record"] == "seed_mean"


def _check_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert "usage: moectr" in proc.stdout
    choices = re.search(r"\{([^}]*)\}", proc.stdout.splitlines()[0])
    assert choices, proc.stdout
    assert set(choices.group(1).split(",")) == set(SUBCOMMANDS)


def test_numpy_is_the_only_runtime_dependency():
    toml = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with open(PYPROJECT, "rb") as fh:
        deps = toml.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


def test_console_script_installed():
    toml = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = toml.load(fh)["project"]["scripts"]
    assert "moectr" in scripts, "pyproject.toml must declare the moectr script"
    declared = metadata.EntryPoint(
        name="moectr", value=scripts["moectr"], group="console_scripts")

    # Run the declared target the way pip's generated wrapper does, against
    # the source tree this test imported, so no install is needed.
    src = str(Path(moectr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, declared.name, declared.value, "--help"],
        capture_output=True, text=True, env=env)
    _check_help(proc)

    try:
        dist = metadata.distribution("moectr")
    except metadata.PackageNotFoundError:
        return  # not installed: no installed script to check
    installed = [ep for ep in dist.entry_points
                 if ep.group == "console_scripts" and ep.name == "moectr"]
    assert [ep.value for ep in installed] == [declared.value]
    # pip puts the script beside this interpreter, which an unactivated
    # virtualenv leaves off PATH.
    search = os.pathsep.join(filter(None, [sysconfig.get_path("scripts"),
                                           os.environ.get("PATH")]))
    script = shutil.which("moectr", path=search)
    assert script, "the installed moectr script should be on PATH"
    _check_help(subprocess.run([script, "--help"], capture_output=True, text=True))


def test_hidden_that_is_not_a_list_is_a_config_error():
    with pytest.raises(ConfigError, match="hidden must be a list of tower widths, got 8"):
        resolve_config({"data": {"csv": "x.csv"}, "hidden": 8}, "train")


@pytest.mark.parametrize("command,extra,runs", [
    ("compare", {"modes": ["plain", "mlora", "moe"]}, 6),
    ("sweep-experts", {"expert_counts": [2, 4]}, 4),
])
def test_a_csv_source_is_parsed_once_per_command(tmp_path, capsys, monkeypatch, command,
                                                  extra, runs):
    gen_cfg = write_cfg(tmp_path, {"data": {"synthetic": TINY_SYNTH}}, "g.json")
    assert cli.main(["generate", "--config", gen_cfg, "--out", str(tmp_path / "gen")]) == 0
    calls = []
    load = cli.load_csv
    monkeypatch.setattr(cli, "load_csv", lambda path: calls.append(path) or load(path))
    cfg = write_cfg(tmp_path, {
        "data": {"csv": str(tmp_path / "gen" / "data_seed0.csv")}, "train": FAST_TRAIN,
        "hidden": [8, 6], "adapter": {"rank": 2}, "seeds": [0, 1], **extra})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)], capsys)[0] == 0
    assert len(calls) == 1
    assert len(list(out.glob("*seed*/metrics.jsonl"))) == runs
