"""The repository's tools, run as a user runs them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ROOT / "tools" / "outputs.py"
#: Directories that git or the test run itself writes.
SKIPPED = {".git", ".pytest_cache", ".hypothesis"}


def checkout_files() -> set[Path]:
    files = set()
    for directory, subdirectories, names in os.walk(ROOT):
        subdirectories[:] = [d for d in subdirectories if d not in SKIPPED]
        files.update(Path(directory, name) for name in names)
    return files


def outputs(*args, tmp: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(OUTPUTS), *map(str, args)],
                          env={**os.environ, "TMPDIR": str(tmp)}, capture_output=True,
                          text=True, check=False, timeout=600)


def test_outputs_manifest_leaves_no_files(tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    before = checkout_files()
    manifest = tmp_path / "manifest.json"
    done = outputs(manifest, "--small", tmp=tmp)
    assert done.returncode == 0, done.stderr
    entries = json.loads(manifest.read_text(encoding="utf-8"))
    settings = entries.pop("settings")
    assert settings.keys() == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "cpu_count"}
    assert settings["cpu_count"] == os.cpu_count()
    commands = [name.split()[0] for name in entries]
    assert {c: commands.count(c) for c in set(commands)} == {
        "fit": 4, "diagnose": 7, "trace": 6, "validate-kg": 8, "input": 8, "synth": 1,
    }
    refused = {"unparsable": 2, "not-an-object": 2, "duplicate-entity": 1,
               "dangling-triple": 1, "string-distance": 1}
    plant = "synth --out synth/seed5-devices4 --seed 5 --devices 4"
    assert sorted(entries[plant]["file"]) == ["fault.csv", "graph.json", "manifest.json", "normal.csv"]
    for name, entry in entries.items():
        stem = name.removeprefix("validate-kg invalid/").removesuffix(".kg.json")
        assert entry.get("exit", 0) == refused.get(stem, 0), name
        assert entry.get("file", "") is not None, name
    assert not any(tmp.iterdir())
    assert checkout_files() == before

    same = outputs("--diff", manifest, manifest, tmp=tmp)
    assert (same.returncode, same.stdout) == (0, "no differences\n")
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({**entries, "settings": {**settings, "OMP_NUM_THREADS": "7"}}),
                       encoding="utf-8")
    done = outputs("--diff", manifest, changed, tmp=tmp)
    assert (done.returncode, done.stdout) == (2, "")
    assert "different settings: OMP_NUM_THREADS (" in done.stderr and "'7' in" in done.stderr
    entries["settings"] = settings
    trace = next(name for name in entries if name.startswith("trace "))
    entries[trace]["stdout"] = "0" * 64
    dropped = next(name for name in entries if name.startswith("input "))
    del entries[dropped]
    changed.write_text(json.dumps(entries), encoding="utf-8")
    done = outputs("--diff", manifest, changed, tmp=tmp)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [f"only in {manifest}: {dropped}", f"{trace}: stdout differ"]


def git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=False)


def test_outputs_against_head_leaves_no_worktree(tmp_path):
    if git("rev-parse", "--verify", "HEAD").returncode:
        pytest.skip("the checkout is not a git repository with a commit")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    before, worktrees = checkout_files(), git("worktree", "list", "--porcelain").stdout
    done = outputs("--small", "--against", "HEAD", tmp=tmp)
    assert (done.returncode, done.stdout) == (0, "no differences\n"), done.stderr
    assert done.stderr.count(" entries written to ") == 2
    assert git("worktree", "list", "--porcelain").stdout == worktrees
    assert not any(tmp.iterdir())
    assert checkout_files() == before

    done = outputs("--against", "no-such-revision", tmp=tmp)
    assert (done.returncode, done.stdout) == (1, "")
    assert "error: cannot check out 'no-such-revision' into a worktree" in done.stderr
    assert git("worktree", "list", "--porcelain").stdout == worktrees
    assert not any(tmp.iterdir())
