from __future__ import annotations

import importlib.util
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from click.testing import CliRunner

import rootkgd
from rootkgd.cli import main
from rootkgd.config import DiagnosisConfig
from rootkgd.rfpa import RfpaParams

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def test_package_exports_resolve():
    """The package exports exactly the names README's "Library use" block
    imports from it, each of which exists, and the removed per-sample SPE,
    out-edge accessor and graph report wrapper are not among them."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    imported = re.search(r"^from rootkgd import (.*)$", section, flags=re.MULTILINE).group(1)
    assert sorted(rootkgd.__all__) == sorted(name.strip() for name in imported.split(","))
    assert all(hasattr(rootkgd, name) for name in rootkgd.__all__)
    assert not hasattr(rootkgd, "validate") and not hasattr(rootkgd, "ValidationReport")


def test_cli_import_leaves_synth_unloaded():
    """Importing the CLI, as every command does, does not load the plant
    simulator; only the ``synth`` command imports it."""
    code = "import rootkgd.cli, sys; sys.exit('rootkgd.synth' in sys.modules)"
    src = str(Path(rootkgd.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=False, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_traced_functions_resolve(monkeypatch):
    """Every function the benchmark traces (``perfbench/tracing.py``'s
    ``TRACED``) is a callable on its rootkgd module, so deleting or renaming
    one fails here and not only in the benchmark."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_readme_config_table_lists_every_field_in_order():
    """README's "Config keys and defaults" table names exactly the
    DiagnosisConfig fields, in declaration order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config keys and defaults", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert documented == [f.name for f in fields(DiagnosisConfig)]


def test_readme_report_params_match_config():
    """README's "Report JSON" paragraph lists exactly the keys of the
    report's ``params`` object, in order."""
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("**Report JSON**", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(\w+)`", paragraph.split("`params` holds", 1)[1])
    assert documented == ["r_pc"] + [f.name for f in fields(RfpaParams)]


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    """README's "Library use" block runs as written on the Quickstart plant."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["synth", "--out", "plant", "--seed", "5", "--devices", "4"])
    assert result.exit_code == 0, result.output
    exec(compile(snippet, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 10


def test_readme_quickstart_commands_run(tmp_path, monkeypatch):
    """Every `rootkgd` command of README's Quickstart block exits 0, run in
    order in an empty directory, so no deleted option survives there."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, flags=re.DOTALL).group(1)
    commands = [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("rootkgd ")
    ]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for args in commands:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
