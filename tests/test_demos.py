"""Every demo script runs to completion and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; a demo whose output changes on purpose gets
# its new hash here
STDOUT_SHA256 = {
    "01_graphs_and_blocks.py": "e9874a4a487038a5f1aae9fd0d3b186e9c9c7ae6d469e1fdc4fefb9ea2fc1ae9",
    "02_invariants_tour.py": "59c891ec49eb2b304597c6a49f89d54f96a3b30eb3c071c04bbb708d44b7453f",
    "03_tails_and_truncation.py": "28cf8bb6d25af8f7d6026cd81ee105a673de1be3474130093a01cc5b1544ec0b",
    "04_integer_normal_forms.py": "08b6b1e5d318c2f4a99fcc47daca9ee410b3a703ef2d4fc95dcb0b2d4090ca75",
    "05_ea_truncations.py": "44cdd654e96d9f87fb51e53b70d148ae277ef38ac1925a65d4181ca6cd28286f",
}


def test_demos_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo.relative_to(ROOT))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
