#!/usr/bin/env python3
"""Digests of rootkgd's outputs, to show that two trees give the same bytes.

    python3 tools/outputs.py MANIFEST.json [--small]
    python3 tools/outputs.py --diff A.json B.json

The first form runs ``rootkgd`` from this checkout's ``src/``, one
subprocess per command, and writes a manifest: for each command, its exit
code and the sha256 of its stdout, its stderr and the file it writes. The
commands are:

- ``fit --graph`` on the TEP fixture, then ``diagnose --json`` on the 51
  fault episodes of ``perfbench/inputs.tep_inputs`` at seed 2;
- ``fit`` on the 800-device plant of ``perfbench/inputs.plant_inputs`` at
  seed 1, once without a graph and once with ``--graph``, then
  ``diagnose --json`` on its 3 fault episodes with each of the two models;
- ``validate-kg`` on, and ``trace`` from every entity of, the four fixture
  graphs (the two bundled with the package and the two under
  ``tests/fixtures``);
- ``synth`` at seeds 1-3 with 30 devices and at seed 5 with 4 devices (its
  stdout and every file it writes), then ``fit --graph`` and
  ``diagnose --json`` on each plant: chains of copies of one unit, whose
  repeated structure a ranking shares and whose ends it does not.

A diagnosis's stdout is its text report and its file the JSON report; a
trace's stdout is its TSV. The inputs come from ``perfbench/inputs.py``,
which this tool imports and does not change; their digests are listed too,
so a changed input explains a changed output. Everything runs in a temporary
directory that is removed at the end, with paths relative to it, so the
manifest does not depend on where the checkout lies. ``--small`` uses a
6-device plant, shorter files, two TEP episodes, the two test fixtures and
only the 4-device ``synth`` plant, for a quick self-test.

The manifest also records the settings that can change a fitted model's
bytes: ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and the CPU count. The
second form refuses (exit 2) two manifests whose settings differ, naming
them; otherwise it lists every command whose exit code or digests differ
between them, or that only one of them holds, and exits 1 if there is any.

Run both trees, then diff (the second tree's copy of this file writes its
own manifest):

    python3 tools/outputs.py /tmp/parent.json   # in the parent checkout
    python3 tools/outputs.py /tmp/change.json   # in the changed checkout
    python3 tools/outputs.py --diff /tmp/parent.json /tmp/change.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import inputs  # noqa: E402  (perfbench/inputs.py, which imports rootkgd from SRC)

FIXTURES = {
    "tep.kg.json": SRC / "rootkgd" / "fixtures" / "tep.kg.json",
    "mff.kg.json": SRC / "rootkgd" / "fixtures" / "mff.kg.json",
    "diamond.kg.json": ROOT / "tests" / "fixtures" / "diamond.kg.json",
    "chain.kg.json": ROOT / "tests" / "fixtures" / "chain.kg.json",
}
TEP_SEED = 2
PLANT_SEED = 1
#: ``synth`` plants as ``(seed, devices)``; ``--small`` runs the last alone.
SYNTH_PLANTS = ((1, 30), (2, 30), (3, 30), (5, 4))
#: The manifest key of the settings, which no command's key can equal.
SETTINGS = "settings"


def settings() -> dict:
    """The settings under which a manifest is made."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    return {**{name: os.environ.get(name) for name in names}, "cpu_count": os.cpu_count()}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs ``rootkgd`` commands in ``work`` and records their digests."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
        self.manifest: dict[str, dict] = {}

    def input(self, path: Path) -> None:
        self.manifest[f"input {path.relative_to(self.work)}"] = {
            "file": digest(path.read_bytes())
        }

    def run(self, args: list[str], writes: str | None = None) -> None:
        if writes is not None:  # two diagnoses of one episode write one report path
            (self.work / writes).unlink(missing_ok=True)
        done = subprocess.run([sys.executable, "-m", "rootkgd.cli", *args], cwd=self.work,
                              env=self.env, capture_output=True, check=False)
        entry = {"exit": done.returncode, "stdout": digest(done.stdout),
                 "stderr": digest(done.stderr)}
        if writes is not None:  # a file, or a directory of files
            written = self.work / writes
            if written.is_dir():
                entry["file"] = {f.name: digest(f.read_bytes()) for f in sorted(written.iterdir())}
            else:
                entry["file"] = digest(written.read_bytes()) if written.exists() else None
        self.manifest[" ".join(args)] = entry


def tep_outputs(runner: Runner, sizes, episodes: int | None) -> None:
    work = runner.work
    (work / "tep").mkdir()
    shutil.copy(FIXTURES["tep.kg.json"], work / "tep" / "tep.kg.json")
    normal, faults = inputs.tep_inputs(work / "tep" / "tep.kg.json", work / "tep", TEP_SEED, sizes)
    runner.input(normal)
    runner.run(["fit", "--graph", "tep/tep.kg.json", "--data", "tep/normal.csv",
                "--model", "tep/model.npz"], writes="tep/model.npz")
    for episode in faults[:episodes]:
        diagnose(runner, "tep/tep.kg.json", "tep/model.npz", episode.path)


def plant_outputs(runner: Runner, sizes) -> None:
    work = runner.work
    (work / "plant").mkdir()
    plant = inputs.plant_inputs(work / "plant", PLANT_SEED, sizes, sizes.plant_episodes)
    inputs.write_csv(plant.normal.values, plant.normal.columns, work / "plant" / "normal.csv")
    runner.input(plant.graph_path)
    runner.input(work / "plant" / "normal.csv")
    runner.run(["fit", "--data", "plant/normal.csv", "--model", "plant/model.npz"],
               writes="plant/model.npz")
    runner.run(["fit", "--graph", "plant/graph.json", "--data", "plant/normal.csv",
                "--model", "plant/graph-model.npz"], writes="plant/graph-model.npz")
    for model in ("plant/model.npz", "plant/graph-model.npz"):
        for episode in plant.episodes:
            diagnose(runner, "plant/graph.json", model, episode.path)


def diagnose(runner: Runner, graph: str, model: str, fault: Path) -> None:
    runner.input(fault)
    data = str(fault.relative_to(runner.work))
    report = data.replace(".csv", ".report.json")
    runner.run(["diagnose", "--graph", graph, "--model", model, "--data", data,
                "--fault-start", str(inputs.FAULT_START), "--window", str(inputs.WINDOW),
                "--json", report], writes=report)


def synth_outputs(runner: Runner, plants) -> None:
    for seed, devices in plants:
        out = f"synth/seed{seed}-devices{devices}"
        runner.run(["synth", "--out", out, "--seed", str(seed), "--devices", str(devices)],
                   writes=out)
        runner.run(["fit", "--graph", f"{out}/graph.json", "--data", f"{out}/normal.csv",
                    "--model", f"{out}/model.npz"], writes=f"{out}/model.npz")
        diagnose(runner, f"{out}/graph.json", f"{out}/model.npz", runner.work / out / "fault.csv")


def graph_outputs(runner: Runner, names: list[str]) -> None:
    (runner.work / "graphs").mkdir()
    for name in names:
        shutil.copy(FIXTURES[name], runner.work / "graphs" / name)
        runner.run(["validate-kg", f"graphs/{name}"])
        for entity in json.loads(FIXTURES[name].read_text(encoding="utf-8"))["entities"]:
            runner.run(["trace", entity["id"], "--graph", f"graphs/{name}"])


def write_manifest(path: Path, small: bool) -> None:
    if small:
        sizes = inputs.Sizes(plant_devices=6, plant_normal_rows=300, fault_rows=200,
                             tep_normal_rows=300, plant_episodes=2)
        episodes, graphs, plants = 2, ["diamond.kg.json", "chain.kg.json"], SYNTH_PLANTS[-1:]
    else:
        sizes, episodes, graphs, plants = inputs.Sizes(), None, list(FIXTURES), SYNTH_PLANTS
    with tempfile.TemporaryDirectory(prefix="rootkgd-outputs-") as work:
        runner = Runner(Path(work))
        tep_outputs(runner, sizes, episodes)
        plant_outputs(runner, sizes)
        graph_outputs(runner, graphs)
        synth_outputs(runner, plants)
    failed = sum(entry.get("exit", 0) != 0 for entry in runner.manifest.values())
    count = len(runner.manifest)
    runner.manifest[SETTINGS] = settings()
    path.write_text(json.dumps(runner.manifest, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{count} entries written to {path} ({failed} non-zero exits)")


class SettingsDiffer(Exception):
    """Two manifests were made under different settings."""


def diff(a_path: Path, b_path: Path) -> list[str]:
    """One line per command whose entry differs between the two manifests;
    ``SettingsDiffer`` if they were made under different settings."""
    a = json.loads(a_path.read_text(encoding="utf-8"))
    b = json.loads(b_path.read_text(encoding="utf-8"))
    a_settings, b_settings = a.pop(SETTINGS, {}), b.pop(SETTINGS, {})
    differ = [f"{name} ({a_settings.get(name)!r} in {a_path}, {b_settings.get(name)!r} in {b_path})"
              for name in sorted(a_settings.keys() | b_settings.keys())
              if a_settings.get(name) != b_settings.get(name)]
    if differ:
        raise SettingsDiffer(f"manifests made under different settings: {'; '.join(differ)}")
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            lines.append(f"only in {a_path}: {name}")
        elif name not in a:
            lines.append(f"only in {b_path}: {name}")
        else:
            fields = [f for f in sorted(a[name].keys() | b[name].keys())
                      if a[name].get(f) != b[name].get(f)]
            if fields:
                lines.append(f"{name}: {', '.join(fields)} differ")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("manifest", nargs="?", type=Path, help="Where to write the manifest.")
    parser.add_argument("--small", action="store_true", help="Small inputs, for a self-test.")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="List what differs between two manifests.")
    args = parser.parse_args(argv)
    if args.diff:
        if args.manifest or args.small:
            parser.error("--diff takes no other argument")
        try:
            lines = diff(*args.diff)
        except SettingsDiffer as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines) if lines else "no differences")
        return 1 if lines else 0
    if args.manifest is None:
        parser.error("give a manifest path or --diff A B")
    write_manifest(args.manifest, args.small)
    return 0


if __name__ == "__main__":
    sys.exit(main())
