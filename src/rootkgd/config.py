"""Diagnosis configuration: defaults and JSON config files.

Every propagation and contribution parameter used anywhere in the pipeline
lives here, so a config file plus the input paths fully determines a run.
The command line overlays its flags on a config (see ``cli``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .rfpa import RfpaParams, finite_real


class ConfigError(Exception):
    """The configuration is malformed or inconsistent."""


_PATH_FIELDS = ("graph_path", "model_path", "normal_data_path", "fault_data_path")
_INT_FIELDS = ("p_max", "fault_start", "window", "top_k")
_REAL_FIELDS = ("r_pc", "sigma_r", "delta_s_min_ratio")


@dataclass(frozen=True)
class DiagnosisConfig:
    graph_path: str | None = None
    model_path: str | None = None
    normal_data_path: str | None = None
    fault_data_path: str | None = None
    r_pc: float = 0.5
    sigma_r: float = 0.1
    p_max: int = 3
    delta_s_min_ratio: float = 1e-4
    fault_start: int = 0
    window: int = 100
    top_k: int = 10

    def __post_init__(self):
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise ConfigError(f"{name} must be a string or null, got {value!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not finite_real(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.fault_start < 0:
            raise ConfigError(f"fault_start must be >= 0, got {self.fault_start}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if not 0 < self.r_pc <= 1:
            raise ConfigError(f"r_pc must be in (0, 1], got {self.r_pc}")
        try:
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(payload)
