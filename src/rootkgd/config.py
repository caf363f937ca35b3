"""Diagnosis configuration: defaults, JSON config files, CLI overrides.

Precedence is flag > file > default. Every propagation and contribution
parameter used anywhere in the pipeline lives here, so a config file plus
the input paths fully determines a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from .features import NORMALIZATION_ORDERS, STATISTICS
from .kgraph import EntityKind
from .rfpa import RfpaParams


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
    #: CSV column -> variable entity id; null keeps a column in the model
    #: without binding it to the graph. Empty means "use the graph's own
    #: column attributes".
    column_bindings: dict[str, str | None] = field(default_factory=dict)
    r_pc: float = 0.5
    sigma_r: float = 0.1
    p_max: int = 3
    delta_s_min_ratio: float = 1e-4
    fault_start: int = 0
    window: int = 100
    rbc_statistic: str = "spe"
    normalization_order: str = "per_sample"
    candidate_filter: tuple[str, ...] = ("variable", "stream", "device")
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
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.column_bindings, dict):
            raise ConfigError(
                f"column_bindings must be an object, got {self.column_bindings!r}"
            )
        if not (isinstance(self.candidate_filter, (list, tuple))
                and all(isinstance(k, str) for k in self.candidate_filter)):
            raise ConfigError(
                f"candidate_filter must be a list of kind names, got {self.candidate_filter!r}"
            )
        if self.fault_start < 0:
            raise ConfigError(f"fault_start must be >= 0, got {self.fault_start}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.rbc_statistic not in STATISTICS:
            raise ConfigError(f"rbc_statistic must be one of {STATISTICS}")
        if self.normalization_order not in NORMALIZATION_ORDERS:
            raise ConfigError(f"normalization_order must be one of {NORMALIZATION_ORDERS}")
        valid_kinds = {k.value for k in EntityKind}
        unknown = [k for k in self.candidate_filter if k not in valid_kinds]
        if unknown:
            raise ConfigError(f"candidate_filter contains unknown kinds: {unknown}")
        object.__setattr__(self, "candidate_filter", tuple(self.candidate_filter))
        bound_by: dict[str, str] = {}
        for col, target in self.column_bindings.items():
            if not isinstance(col, str) or not (target is None or isinstance(target, str)):
                raise ConfigError(
                    f"column_bindings entries must map column names to entity ids "
                    f"or null, got {col!r}: {target!r}"
                )
            if target is not None and bound_by.setdefault(target, col) != col:
                raise ConfigError(
                    f"column_bindings binds columns {bound_by[target]!r} and {col!r} "
                    f"to the same variable {target!r}"
                )

    def rfpa_params(self) -> RfpaParams:
        return RfpaParams(
            sigma_r=self.sigma_r,
            p_max=self.p_max,
            delta_s_min_ratio=self.delta_s_min_ratio,
        )

    def candidate_kinds(self) -> tuple[EntityKind, ...]:
        return tuple(EntityKind(k) for k in self.candidate_filter)

    def params_dict(self) -> dict[str, Any]:
        """Parameter set for report metadata."""
        return {
            "r_pc": self.r_pc,
            "sigma_r": self.sigma_r,
            "p_max": self.p_max,
            "delta_s_min_ratio": self.delta_s_min_ratio,
            "rbc_statistic": self.rbc_statistic,
            "normalization_order": self.normalization_order,
        }


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(payload)


def apply_overrides(config: DiagnosisConfig, **overrides: Any) -> DiagnosisConfig:
    """Overlay CLI flags; None values mean "not given, keep current"."""
    effective = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(effective) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config overrides: {sorted(unknown)}")
    return replace(config, **effective)
