"""Nine small pipelines against outputs checked in from an earlier commit.

On the platform the fixture records (numpy version, BLAS build and kernel,
numpy's exp target, machine) every output file and the test predictions must
match byte for byte.  Elsewhere the bits of a matmul or an exp may differ, so
only the predictions are compared, within 1e-12.  The test prints which of
the two it ran.
A change that means to alter outputs regenerates the fixture with
``PYTHONPATH=src python tests/byte_identity.py``.
"""

import json

import numpy as np

import byte_identity


def test_pipelines_reproduce_the_fixture(tmp_path, pytestconfig):
    with open(byte_identity.FIXTURE, encoding="utf-8") as fh:
        fixture = json.load(fh)
    exact = fixture["platform"] == byte_identity.fingerprint()
    assert list(fixture["pipelines"]) == sorted(byte_identity.PIPELINES)
    faults = []
    for name, want in fixture["pipelines"].items():
        out = tmp_path / name
        out.mkdir()
        got = byte_identity.run(name, str(out))
        moved = np.max(np.abs(np.subtract(got["predictions"], want["predictions"])))
        if exact:
            for fname in sorted(set(got["files"]) | set(want["files"])):
                if got["files"].get(fname) != want["files"].get(fname):
                    faults.append(f"{name}/{fname} differs")
            if got["predictions_sha256"] != want["predictions_sha256"]:
                faults.append(f"{name} predictions differ, max |change| {moved:.3g}")
        elif not moved <= 1e-12:
            faults.append(f"{name} predictions moved by up to {moved:.3g}")
    mode = ("exact bytes on the fixture's platform" if exact else
            f"predictions within 1e-12: platform {byte_identity.fingerprint()} "
            f"is not the fixture's {fixture['platform']}")
    line = f"byte identity ({len(fixture['pipelines'])} pipelines, {mode}): " + (
        "PASS" if not faults else "FAIL")
    capture = pytestconfig.pluginmanager.getplugin("capturemanager")
    if capture is None:
        print(line, flush=True)
    else:
        with capture.global_and_fixture_disabled():
            print(line, flush=True)
    assert not faults, "; ".join(faults)


def _npz(path):
    """(manifest without its mode, {array key: bytes}, mode) of a checkpoint."""
    with np.load(path) as z:
        arrays = {k: z[k].tobytes() for k in z.files}
    manifest = json.loads(arrays.pop("manifest"))
    return manifest, arrays, manifest.pop("mode")


def test_a_plain_run_is_the_first_phase_of_mlora_and_moe(tmp_path):
    # Every mode builds the same parameters and phase 1 trains the same
    # tensors, so a plain run is the first phase of the other two, and an
    # mlora run's expert units are the moe run's.
    for arch in ("mlp", "wdl", "deepfm"):
        outs = {}
        for mode in ("plain", "mlora", "moe"):
            outs[mode] = tmp_path / f"{arch}-{mode}"
            outs[mode].mkdir()
            byte_identity.run(f"{arch}-{mode}", str(outs[mode]))
        lines = {m: (out / "phases.jsonl").read_bytes().splitlines() for m, out in outs.items()}
        assert lines["plain"][0] == lines["mlora"][0] == lines["moe"][0], arch
        children = [json.loads(lines[m][1])["children"] for m in ("mlora", "moe")]
        assert children[0] == children[1], arch
        for phase, modes in (("phase1", ("plain", "mlora", "moe")), ("phase2", ("mlora", "moe"))):
            got = [_npz(outs[m] / f"{phase}.npz") for m in modes]
            assert [mode for _, _, mode in got] == list(modes)
            for manifest, arrays, _ in got[1:]:
                assert manifest == got[0][0], (arch, phase)
                assert arrays == got[0][1], (arch, phase)


def test_regeneration_names_what_moved():
    with open(byte_identity.FIXTURE, encoding="utf-8") as fh:
        old = json.load(fh)["pipelines"]
    assert byte_identity.moved(old, old) == []
    new = json.loads(json.dumps(old))
    new["wdl-moe"]["files"]["phase3.npz"] = "0" * 64
    new["mlp-plain"]["predictions_sha256"] = "1" * 64
    del new["deepfm-mlora"]["files"]["phase2.npz"]
    assert byte_identity.moved(old, new) == [
        "deepfm-mlora/phase2.npz", "mlp-plain predictions_sha256", "wdl-moe/phase3.npz"]
