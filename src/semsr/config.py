"""Run configuration: a plain key = value text file plus CLI overrides.

Lines starting with # and blank lines are ignored, and so is a # that
follows whitespace together with the rest of its line. Values are coerced
by field type; list fields (ks, ratios) are comma-separated. A flag is
read by the same rule as a config line. Relative paths in the file resolve
against its directory; those given as flags are kept as given. Unknown
keys are rejected so typos fail fast.
"""

import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path

from . import dataset, llm, metrics, model, train
from .dataset import read_records
from .errors import DataError, check_values

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


_RULES = {**dataset.RULES, **model.RULES, **train.RULES, **llm.RULES, **metrics.RULES,
          "threads": (lambda v: v >= 1, ">= 1")}  # each value's rule is its taker's; only the CLI reads threads
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


def _entry(key: str, text: str) -> tuple | None:
    """(key, value) for one config value given as text, from a config line
    or a flag; None for an empty value. An unknown key, a value that does
    not parse or one outside its rule in _RULES is a DataError."""
    if key not in _FIELDS:
        raise DataError(f"unknown config key {key!r}")
    value = _coerce(key, text)
    if value is not None and key in _RULES:
        check_values(_RULES, **{key: value})
    return None if value is None else (key, value)


def _config_line(line: str) -> tuple | None:
    """(key, value) for one config line; None for a comment or an empty value."""
    stripped = re.sub(r"\s#.*", "", line).strip()
    if not stripped or stripped.startswith("#"):
        return None
    key, eq, raw = stripped.partition("=")
    if not eq:
        raise DataError("expected 'key = value'")
    return _entry(key.strip().replace("-", "_"), raw)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a config file and apply overrides, flag text by key, which win.
    A relative path from the file resolves against the file's directory; one
    from an override is kept as given. A bad value is an error naming its
    config line, or the command line for an override."""
    path = Path(path)
    values = {
        key: str(path.parent / value) if key in _PATH_FIELDS else value
        for key, value in filter(None, read_records(path, "config", _config_line))
    }
    try:
        flags = [_entry(key, str(text)) for key, text in (overrides or {}).items()]
    except DataError as exc:
        raise DataError(f"command line: {exc}") from None
    return RunConfig(**{**values, **dict(filter(None, flags))})
