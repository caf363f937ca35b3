"""Diagnosis configuration: defaults and JSON config files.

A config names the input files and sets the fault window, the report length,
the retained-variance ratio ``r_pc`` and the ripple parameters, whose
defaults and checks are ``RfpaParams``'s. The command line overlays its
flags on a config (see ``cli``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .features import check_share
from .rfpa import RfpaParams


class ConfigError(Exception):
    """The configuration is malformed or inconsistent."""


_PATH_FIELDS = ("graph_path", "model_path", "normal_data_path", "fault_data_path")
#: The integer fields and the least value each may take.
_INT_FIELDS = {"fault_start": 0, "window": 1, "top_k": 1}


@dataclass(frozen=True)
class DiagnosisConfig:
    graph_path: str | None = None
    model_path: str | None = None
    normal_data_path: str | None = None
    fault_data_path: str | None = None
    r_pc: float = 0.5
    sigma_r: float = RfpaParams.sigma_r
    p_max: int = RfpaParams.p_max
    delta_s_min_ratio: float = RfpaParams.delta_s_min_ratio
    fault_start: int = 0
    window: int = 100
    top_k: int = 10

    def __post_init__(self):
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise ConfigError(f"{name} must be a string or null, got {value!r}")
        for name, least in _INT_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        try:
            check_share("r_pc", self.r_pc)
            self.rfpa_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def rfpa_params(self) -> RfpaParams:
        return RfpaParams(
            sigma_r=self.sigma_r,
            p_max=self.p_max,
            delta_s_min_ratio=self.delta_s_min_ratio,
        )


_FIELD_NAMES = {f.name for f in fields(DiagnosisConfig)}


def config_from_dict(payload: dict[str, Any]) -> DiagnosisConfig:
    unknown = set(payload) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return DiagnosisConfig(**payload)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> DiagnosisConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(payload)
