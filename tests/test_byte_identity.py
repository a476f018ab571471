"""Ten small pipelines against outputs checked in from an earlier commit.

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
