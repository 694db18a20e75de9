"""Run configuration: key = value files, overrides, validation, echo.

A configuration file holds ``key = value`` lines with ``#`` comments,
read as every text input is (``evaldata.text_lines``: UTF-8, a leading
byte-order mark dropped, only a line feed ending a line).
Command-line overrides are ``--key value`` pairs applied on top.
Unknown keys are fatal.  Every command echoes the fully resolved
configuration as ``# key = value`` lines so that a run is reproducible
from its own output; the echo also feeds the config fingerprint stored
in checkpoints.

The environment variable ``PAIRSIM_CONFIG`` names a default config file
used when a command is not given one explicitly.

The architecture's rules belong to ``model.ModelSpec``: ``validate``
derives a spec, so a configuration naming no valid model fails to load.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .evaldata import text_lines
from .model import spec_from_config

ENV_CONFIG = "PAIRSIM_CONFIG"


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
        spec_from_config(self, 1)     # any width: the tables are not loaded yet
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key {key!r}")
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if key == "embeddings" and ("\0" in raw or not raw.replace(",", " ").strip()):
            raise ValueError("expected file names, without NUL bytes")
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def _set(cfg: RunConfig, key: str, raw: str):
    setattr(cfg, key, _parse_value(key, raw))


def load_config(path=None, overrides=None) -> RunConfig:
    """Defaults, then the file (or $PAIRSIM_CONFIG), then overrides.

    A configuration that ``validate`` refuses is blamed on the line of
    the file after which its settings, with the overrides, never
    validate again; on no line if the overrides alone do not.
    """
    linenos, values = [], []            # the file's settings: (key, value)
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is not None:
        for lineno, line in enumerate(text_lines(path, ConfigError), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected key = value")
            key, _, raw = line.partition("=")
            try:
                values.append((key.strip(), _parse_value(key.strip(), raw)))
            except ConfigError as exc:
                raise ConfigError(f"{path} line {lineno}: {exc}") from None
            linenos.append(lineno)
    cli = [(key, _parse_value(key, raw)) for key, raw in (overrides or {}).items()]
    try:
        return RunConfig(**dict(values + cli)).validate()
    except ConfigError as exc:
        for n in range(len(values) - 1, -1, -1):
            try:
                RunConfig(**dict(values[:n] + cli)).validate()
            except ConfigError:
                continue
            raise ConfigError(f"{path} line {linenos[n]}: {exc}") from None
        raise


def echo_lines(cfg: RunConfig) -> list[str]:
    """Canonical '# key = value' lines; identical echoes mean identical runs."""
    return [f"# {f.name} = {getattr(cfg, f.name)!r}" for f in fields(RunConfig)]


def fingerprint(cfg: RunConfig) -> str:
    return hashlib.sha256("\n".join(echo_lines(cfg)).encode()).hexdigest()[:16]
