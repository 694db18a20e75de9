"""Run configuration: key = value files, overrides, validation, echo.

A configuration file holds ``key = value`` lines with ``#`` comments.
Command-line overrides are ``--key value`` pairs applied on top.
Unknown keys are fatal.  Every command echoes the fully resolved
configuration as ``# key = value`` lines so that a run is reproducible
from its own output; the echo also feeds the config fingerprint stored
in checkpoints.

The environment variable ``PAIRSIM_CONFIG`` names a default config file
used when a command is not given one explicitly.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

ENV_CONFIG = "PAIRSIM_CONFIG"

_CHOICES = {
    "task": ("sts", "entailment", "paraphrase"),
    "encoder": ("word_avg", "proj_avg", "lstm_only", "maxcnn_only", "maxlstm"),
    "comparison": ("multi", "sent"),
}


@dataclass
class RunConfig:
    # embeddings
    embeddings: str = ""          # comma-separated word-vector files
    oov_scale: float = 0.1
    seed: int = 13
    # architecture
    encoder: str = "maxlstm"
    comparison: str = "multi"
    filters: int = 1600           # H
    lstm_dim: int = 1600          # l
    max_len: int = 32             # L
    d_neu: int = 128
    dropout: float = 0.5
    # task / objective
    task: str = "sts"
    score_k: int = 6
    raw_min: float = 0.0
    raw_max: float = 5.0
    # training
    batch_size: int = 30
    epochs: int = 50
    patience: int = 10
    rho: float = 0.95
    epsilon: float = 1e-6
    shuffle: bool = True
    # data handling
    lenient: bool = False
    # bench
    bench_encoders: str = "word_avg,proj_avg,lstm_only,maxcnn_only,maxlstm"

    def embedding_paths(self) -> list[str]:
        return [p.strip() for p in self.embeddings.split(",") if p.strip()]

    def validate(self):
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(
                    f"{key} = {getattr(self, key)!r}; choose from {allowed}")
        # OOV fills are drawn from [-oov_scale, oov_scale], whose width must be finite
        if not (self.oov_scale >= 0.0 and math.isfinite(2.0 * self.oov_scale)):
            raise ConfigError(f"oov_scale must be a finite number >= 0, got {self.oov_scale}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ConfigError(f"epsilon must be a finite number > 0, got {self.epsilon}")
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 0:
            raise ConfigError("batch_size/epochs must be >= 1 and patience >= 0")
        if min(self.filters, self.lstm_dim, self.max_len, self.d_neu) < 1:
            raise ConfigError("filters, lstm_dim, max_len, d_neu must be >= 1")
        if self.task == "sts":
            if self.score_k < 2:
                raise ConfigError(f"score_k must be >= 2, got {self.score_k}")
            if not self.raw_max > self.raw_min:
                raise ConfigError(
                    f"raw score range is empty: [{self.raw_min}, {self.raw_max}]")
        if self.comparison == "multi" and self.encoder not in ("maxcnn_only", "maxlstm"):
            raise ConfigError(
                f"encoder {self.encoder!r} produces no word features; "
                f"set comparison = sent")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool" or kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "int" or kind is int:
            return int(raw)
        if kind == "float" or kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def _set(cfg: RunConfig, key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key {key!r}")
    setattr(cfg, key, _parse_value(key, raw))


def load_config(path=None, overrides=None) -> RunConfig:
    """Defaults, then the file (or $PAIRSIM_CONFIG), then overrides."""
    cfg = RunConfig()
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected key = value")
            key, _, raw = line.partition("=")
            try:
                _set(cfg, key.strip(), raw)
            except ConfigError as exc:
                raise ConfigError(f"{path} line {lineno}: {exc}") from None
    for key, raw in (overrides or {}).items():
        _set(cfg, key, raw)
    return cfg.validate()


def echo_lines(cfg: RunConfig) -> list[str]:
    """Canonical '# key = value' lines; identical echoes mean identical runs."""
    return [f"# {f.name} = {getattr(cfg, f.name)!r}" for f in fields(RunConfig)]


def fingerprint(cfg: RunConfig) -> str:
    return hashlib.sha256("\n".join(echo_lines(cfg)).encode()).hexdigest()[:16]
