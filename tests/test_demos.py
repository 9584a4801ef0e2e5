"""The demos print byte-identical output: SHA-256 of each script's stdout.

A change that alters a digest must say why the demo's output changed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_aggregation_and_digests.py": "c7450c32f477913c9829327ad1014fb4cc5957534c2bbbfd41f92909b87efe26",
    "02_lazy_greedy_on_a_matrix.py": "7e64fb0571368ae22b8b36220765075fb4a7c4a0f76b31842f5cd04156c8ba4b",
    "03_graph_utility_families.py": "d17b3300e3b0d344b69b94455780e5e91727bdce1389d57bfe313d79152ca994",
    "04_sketch_sampler_vs_exact.py": "c66e9ceed18a724b6ce63e2ccd390b8c5b62d0b60df832700250492dcf217264",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_pinned(name):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[name]
