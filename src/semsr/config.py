"""Run configuration: a plain key = value text file plus CLI overrides.

Lines starting with # and blank lines are ignored, and so is a # that
follows whitespace together with the rest of its line. Values are coerced
by field type; list fields (ks, ratios) are comma-separated. Relative paths
are resolved against the config file's directory. Unknown keys are
rejected so typos fail fast.
"""

import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path

from .dataset import check_ratios, read_records
from .errors import DataError
from .model import VARIANTS

_PATH_FIELDS = (
    "sessions_path",
    "metadata_path",
    "semantic_path",
    "data_dir",
    "out_dir",
    "checkpoint",
    "ranker_checkpoint",
    "candidates",
    "dump_candidates",
    "mock_responses",
    "templates_dir",
)


@dataclass
class RunConfig:
    # model
    variant: str = "base"
    backbone: str = "attn-niser"
    d1: int = 100
    d2: int = 1024
    d: int = 100
    scale: float = 16.0
    # optimization
    lr: float = 0.001
    batch_size: int = 100
    epochs: int = 30
    patience: int = 5
    val_k: int = 100
    # data
    min_item_freq: int = 5
    min_session_len: int = 2
    ratios: tuple = (0.8, 0.1, 0.1)
    # evaluation
    ks: tuple = (20, 100)
    # execution
    seed: int = 42
    threads: int = 1
    # paths
    sessions_path: str | None = None
    metadata_path: str | None = None
    semantic_path: str | None = None
    data_dir: str | None = None
    out_dir: str | None = None
    checkpoint: str | None = None
    ranker_checkpoint: str | None = None
    candidates: str | None = None
    dump_candidates: str | None = None
    # prompt baseline
    strategy: str = "fs"
    shots: int = 3
    mock_responses: str | None = None
    mock_default: str | None = None
    endpoint_url: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    templates_dir: str | None = None

    def validate(self) -> "RunConfig":
        for name in _FIELDS:
            _check_range(name, getattr(self, name))
        return self


_AT_LEAST_ONE = ("d1", "d2", "d", "batch_size", "epochs", "threads", "val_k", "max_retries", "min_item_freq")


def _check_range(name: str, value) -> None:
    """The value rule of field `name`; a value outside it is a DataError."""
    if name == "variant" and value not in VARIANTS:
        raise DataError(f"unknown variant {value!r}")
    if name in _AT_LEAST_ONE and value < 1:
        raise DataError(f"{name} must be >= 1")
    if name in ("scale", "lr") and value <= 0:
        raise DataError(f"{name} must be positive")
    if name == "ks" and any(k < 1 for k in value):
        raise DataError("every K must be >= 1")
    if name == "min_session_len" and value < 2:
        raise DataError("min_session_len must be >= 2")
    if name == "ratios":
        check_ratios(value)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    raw = raw.strip()
    if raw == "":
        return None
    try:
        if name in ("ks",):
            return tuple(int(x) for x in raw.split(","))
        if name in ("ratios",):
            return tuple(float(x) for x in raw.split(","))
        typ = _FIELDS[name].type
        if typ in (int, "int"):
            return int(raw)
        if typ in (float, "float"):
            return float(raw)
    except ValueError as exc:
        raise DataError(f"bad value for {name}: {exc}") from None
    return raw


def _config_entry(line: str) -> tuple | None:
    """(key, value) for one config line; None for a comment or an empty value."""
    stripped = re.sub(r"\s#.*", "", line).strip()
    if not stripped or stripped.startswith("#"):
        return None
    key, eq, raw = stripped.partition("=")
    if not eq:
        raise DataError("expected 'key = value'")
    key = key.strip().replace("-", "_")
    if key not in _FIELDS:
        raise DataError(f"unknown config key {key!r}")
    value = _coerce(key, raw)
    if value is None:
        return None
    _check_range(key, value)
    return key, value


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a config file and apply overrides (which win). A value out of
    its field's range is an error naming its config line, or the command
    line for an override."""
    path = Path(path)
    values = dict(entry for entry in read_records(path, "config", _config_entry) if entry)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise DataError(f"unknown config override {key!r}")
        try:
            values[key] = _coerce(key, value) if isinstance(value, str) else value
            _check_range(key, values[key])
        except DataError as exc:
            raise DataError(f"command line: {exc}") from None
    cfg = RunConfig(**values)
    base = path.parent
    for name in _PATH_FIELDS:
        value = getattr(cfg, name)
        if value is not None and not Path(value).is_absolute():
            setattr(cfg, name, str(base / value))
    return cfg.validate()
