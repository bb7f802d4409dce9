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

from .errors import DataError

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
    init: str = "auto"
    # optimization
    lr: float = 0.001
    batch_size: int = 100
    epochs: int = 30
    patience: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
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
        if self.variant not in ("base", "sem-i", "sem-f"):
            raise DataError(f"unknown variant {self.variant!r}")
        for name in ("d1", "d2", "d", "batch_size", "epochs", "threads"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if self.scale <= 0 or self.lr <= 0:
            raise DataError("scale and lr must be positive")
        if any(k < 1 for k in self.ks):
            raise DataError("every K must be >= 1")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str, where: str):
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
        raise DataError(f"{where}: bad value for {name}: {exc}") from None
    return raw


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a config file and apply overrides (which win)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    values: dict = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = re.sub(r"\s#.*", "", line).strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _FIELDS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        value = _coerce(key, raw, f"{path}:{lineno}")
        if value is not None:
            values[key] = value
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise DataError(f"unknown config override {key!r}")
        values[key] = _coerce(key, value, "command line") if isinstance(value, str) else value
    cfg = RunConfig(**values)
    base = path.parent
    for name in _PATH_FIELDS:
        value = getattr(cfg, name)
        if value is not None and not Path(value).is_absolute():
            setattr(cfg, name, str(base / value))
    return cfg.validate()
