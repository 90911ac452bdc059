"""Golden digests: every scenario output except ``timing.json``, pinned by sha256.

``golden_digests.json`` holds the sha256 of each data file the five shipped
configs write at seed 7, and ``linear_compare`` and ``heston_demo`` at seed
12, together with the Python and numpy versions that made them.  Another
numpy may round differently, so on other versions the test skips and says
why.  Regenerate the file (and explain why in CHANGES.md) with

    PYTHONPATH=src python3 tests/test_golden_digests.py

run from the repository root; it runs every case and overwrites the file.
"""

import hashlib
import json
import os
import platform
import sys

import numpy as np
import pytest

from ksplab.config import read_document, validate_config
from ksplab.harness import run_scenario

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GOLDEN = os.path.join(_ROOT, "tests", "golden_digests.json")
CASES = [
    (name, 7)
    for name in ("linear_compare", "master_demo", "heston_demo", "pricing_demo", "novikov_check")
] + [("linear_compare", 12), ("heston_demo", 12)]


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def output_digests(scenario: str, seed: int, out: str) -> dict:
    """Run a shipped config at ``seed`` into ``out``; sha256 of each file but timing.json."""
    with open(os.path.join(_ROOT, "configs", f"{scenario}.json"), encoding="utf-8") as fh:
        _, raw = read_document(fh.read(), scenario)
    run_scenario(validate_config(scenario, raw, {"seed": seed, "output_dir": out}))
    digests = {}
    for name in sorted(os.listdir(out)):
        if name != "timing.json":
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _golden() -> dict:
    with open(_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("scenario, seed", CASES, ids=[f"{s}-seed{n}" for s, n in CASES])
def test_outputs_match_golden_digests(scenario, seed, tmp_path):
    golden = _golden()
    made_with = {"python": golden["python"], "numpy": golden["numpy"]}
    if made_with != _versions():
        pytest.skip(f"digests were made with {made_with}, this is {_versions()}")
    expected = golden["digests"][f"{scenario}/seed{seed}"]
    assert output_digests(scenario, seed, str(tmp_path / "out")) == expected


def main() -> int:
    import tempfile

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, seed in CASES:
            key = f"{scenario}/seed{seed}"
            digests[key] = output_digests(scenario, seed, os.path.join(tmp, key))
    with open(_GOLDEN, "w", newline="\n", encoding="utf-8") as fh:
        json.dump({**_versions(), "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {_GOLDEN}: {len(digests)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
