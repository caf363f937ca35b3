from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from rootkgd.config import DiagnosisConfig

README = Path(__file__).parent.parent / "README.md"


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
    assert documented == list(DiagnosisConfig().params_dict())
