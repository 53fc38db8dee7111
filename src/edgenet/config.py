"""JSON run configuration: one frozen dataclass per section of the document.

Field names are the JSON keys, nesting follows the JSON nesting, and each
field's default is the setting's default. Each section's ``__post_init__``
checks its ranges, so ``load_config`` rejects a bad value before any work
starts. Parsing is strict: an unknown key anywhere is an error (typo
protection), and so is a value whose JSON type differs from its default's:
a bool must be true/false, an int an integer, a float any finite number but
a bool, and a tuple a list of its items' type. Only a field annotated
``| None`` takes ``null``. Errors name the key by its dotted path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace

from .data_pipeline import FeatureSchema, check_json_object
from .errors import BadRatios, ConfigError


@dataclass(frozen=True)
class Split:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if len(self.ratios) != 3:
            raise BadRatios(f"need exactly three ratios, got {len(self.ratios)}")
        if any(x <= 0.0 for x in self.ratios):
            raise BadRatios(f"ratios must be positive, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise BadRatios(f"ratios must sum to 1, got {sum(self.ratios)}")


@dataclass(frozen=True)
class Architecture:
    layers: int = 3
    hidden: int = 32
    dropout: float = 0.1
    seq_len: int = 1

    def __post_init__(self):
        if self.layers < 1 or self.hidden < 1 or self.seq_len < 1:
            raise ConfigError("layers, hidden and seq_len must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class Phase:
    learning_rate: float
    epochs: int = 30
    batch_size: int = 256

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class Phases:
    """Momentum SGD per phase; each phase starts with fresh momentum buffers."""

    momentum: float = 0.9
    dense: Phase = Phase(learning_rate=0.1)
    sparse: Phase = Phase(learning_rate=0.01)
    redense: Phase = Phase(learning_rate=0.001)

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class Pruning:
    """The sparse phase's linear sparsity ramp, and selective weight decay:
    its factor a grows geometrically from a0, capped at T."""

    initial_sparsity: float = 0.25
    final_sparsity: float = 0.8
    a0: float = 0.001
    a_growth: float = 1.2
    target_threshold: float = 0.5  # T
    mu: float = 1e-4

    def __post_init__(self):
        if not 0.0 <= self.initial_sparsity <= self.final_sparsity < 1.0:
            raise ConfigError("need 0 <= initial_sparsity <= final_sparsity < 1, got "
                              f"({self.initial_sparsity}, {self.final_sparsity})")
        if self.a0 <= 0.0:
            raise ConfigError(f"a0 must be > 0, got {self.a0}")
        if self.a_growth <= 1.0:
            raise ConfigError(f"a_growth must be > 1, got {self.a_growth}")
        if not 0.0 < self.target_threshold <= 1.0:
            raise ConfigError(f"target_threshold must be in (0, 1], got {self.target_threshold}")
        if self.mu < 0.0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")


@dataclass(frozen=True)
class EarlyStop:
    """Patience on validation AUC. Early stopping always runs in the dense
    and re-dense phases and never in the sparse one, which runs its whole
    ramp to ``final_sparsity``."""

    patience: int = 5

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    schema: FeatureSchema | None = None
    split: Split = Split()
    architecture: Architecture = Architecture()
    phases: Phases = Phases()
    pruning: Pruning = Pruning()
    early_stop: EarlyStop = EarlyStop()
    grad_clip_norm: float | None = 5.0  # null turns clipping off

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0.0:
            raise ConfigError("grad_clip_norm must be positive or null")
        seq_len = self.architecture.seq_len
        if self.schema is not None and len(self.schema.selected_features) % seq_len:
            raise ConfigError(f"{len(self.schema.selected_features)} selected features "
                              f"not divisible by architecture.seq_len {seq_len}")


def _typed(value, default, name: str):
    """``value`` if its JSON type is the default's (floats as float)."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a JSON list, got {json.dumps(value)}")
        return tuple(_typed(v, default[0], name) for v in value)
    kind = type(default)
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ConfigError(f"{name} must be a JSON {kind.__name__}, got {json.dumps(value)}")
    if kind is not float:
        return value
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{name} is beyond the float range") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _parse(default, obj, where: str = ""):
    """``default`` with the keys the JSON object ``obj`` gives replaced,
    section by section; ``where`` is the object's dotted key ("" at the top)."""
    check_json_object(obj, [f.name for f in fields(default)], where)
    prefix = where + "." if where else ""
    changes = {}
    for f in fields(default):
        if f.name not in obj:
            continue
        value, current, name = obj[f.name], getattr(default, f.name), prefix + f.name
        if value is None and str(f.type).endswith("| None"):
            changes[f.name] = None
        elif f.name == "schema":
            changes[f.name] = FeatureSchema.from_json(value, name)
        elif is_dataclass(current):
            changes[f.name] = _parse(current, value, name)
        else:
            changes[f.name] = _typed(value, current, name)
    try:
        return replace(default, **changes)
    except ConfigError as exc:
        if not where:
            raise
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(doc) -> RunConfig:
    """The run config a JSON document describes; absent keys keep their defaults."""
    return _parse(RunConfig(), doc)


def load_config(path: str) -> RunConfig:
    """Load a config file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return config_from_dict(doc)
