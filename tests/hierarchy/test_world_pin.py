"""The built world, pinned: a change to how ``build_hierarchy`` works
must leave what it builds byte-for-byte the same.

Each digest is taken in a fresh interpreter, so that names interned by
earlier tests cannot shift the intern order the dump records.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: SHA-256 of ``world_dump``'s dump of the seed-7 world at each scale.
PINNED = {
    "tiny": "9f410327fd7cc776b5c79e8ce7d6a8885400e209fc99dd4790ace158e47e0f6e",
    "small": "55150a9377a0311c199b8f4718f46594fa6d833d1b07d044d86ffd3f3347d3db",
}


@pytest.mark.parametrize("scale", sorted(PINNED))
def test_world_matches_its_pinned_digest(scale):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "tests.hierarchy.world_dump", scale],
        capture_output=True, text=True, env=env, check=True, cwd=ROOT,
    )
    assert out.stdout.strip() == PINNED[scale]
