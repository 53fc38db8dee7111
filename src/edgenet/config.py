"""JSON run configuration: parsing, defaults, strict validation.

Unknown keys anywhere in the document are errors (typo protection), and so
is a value whose JSON type differs from its default's: a bool must be
true/false, an int an integer, a float any number but a bool. Field
constraints are enforced by the owning modules' dataclasses, so a bad value
fails before any work starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .data_pipeline import FeatureSchema, check_ratios
from .dsd_trainer import (ArchConfig, EarlyStopPolicy, PhaseConfig,
                          TrainerConfig)
from .errors import ConfigError
from .pruning import SwdConfig


@dataclass(frozen=True)
class QuantConfig:
    q_min: int = -128
    q_max: int = 127
    fixed_range: bool = False

    def __post_init__(self):
        if not -128 <= self.q_min < self.q_max <= 127:
            raise ConfigError(f"quantization range [{self.q_min}, {self.q_max}] "
                              "must fit signed 8-bit with q_min < q_max")


@dataclass
class RunConfig:
    seed: int = 42
    schema: FeatureSchema | None = None
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    trainer: TrainerConfig = TrainerConfig()
    quant: QuantConfig = QuantConfig()

    def __post_init__(self):
        check_ratios(self.ratios)


def _typed(value, default, name: str):
    """``value`` if its JSON type is the default's (floats as float); a null
    default takes any value, which its owner then checks."""
    if default is None:
        return value
    kind = type(default)
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ConfigError(f"{name} must be a JSON {kind.__name__}, got {json.dumps(value)}")
    try:
        return float(value) if kind is float else value
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{name} is beyond the float range") from None


def _take(obj, allowed: dict, where: str) -> dict:
    """Known keys with defaults, each of its default's type; reject anything
    unexpected."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    prefix = "" if where == "config" else where + "."
    return {k: _typed(obj[k], default, prefix + k) if k in obj else default
            for k, default in allowed.items()}


def _phase(obj: dict, where: str, lr: float) -> PhaseConfig:
    vals = _take(obj, {"learning_rate": lr, "epochs": 30, "batch_size": 256}, where)
    return PhaseConfig(learning_rate=vals["learning_rate"], epochs=vals["epochs"],
                       batch_size=vals["batch_size"])


def config_from_dict(doc: dict) -> RunConfig:
    top = _take(doc, {"seed": 42, "schema": None,
                      "split": {}, "architecture": {}, "phases": {},
                      "pruning": {}, "quantization": {}, "early_stop": {},
                      "grad_clip_norm": None}, "config")
    clip = doc.get("grad_clip_norm", 5.0)  # null turns clipping off
    clip = None if clip is None else _typed(clip, 0.0, "grad_clip_norm")

    schema = FeatureSchema.from_json(top["schema"]) if top["schema"] else None

    split = _take(top["split"], {"ratios": [0.8, 0.1, 0.1]}, "split")
    ratios = tuple(_typed(r, 0.0, "split.ratios") for r in split["ratios"])

    arch_v = _take(top["architecture"], {"layers": 3, "hidden": 32, "dropout": 0.1,
                                         "tied_output_gate": False, "seq_len": 1},
                   "architecture")
    arch = ArchConfig(n_layers=arch_v["layers"], hidden_size=arch_v["hidden"],
                      dropout_rate=arch_v["dropout"],
                      tied_output_gate=arch_v["tied_output_gate"], seq_len=arch_v["seq_len"])

    phases = _take(top["phases"], {"momentum": 0.9, "dense": {}, "sparse": {},
                                   "redense": {}}, "phases")
    dense = _phase(phases["dense"], "phases.dense", 0.1)
    sparse = _phase(phases["sparse"], "phases.sparse", 0.01)
    redense = _phase(phases["redense"], "phases.redense", 0.001)

    pr = _take(top["pruning"], {"initial_sparsity": 0.25, "final_sparsity": 0.8,
                                "a0": 0.001, "a_growth": 1.2,
                                "target_threshold": 0.5, "mu": 1e-4}, "pruning")
    swd = SwdConfig(a0=pr["a0"], a_growth=pr["a_growth"],
                    target_threshold=pr["target_threshold"], mu=pr["mu"])

    es = _take(top["early_stop"], {"patience": 5, "dense": True, "sparse": False,
                                   "redense": True}, "early_stop")
    early = EarlyStopPolicy(patience=es["patience"], dense=es["dense"],
                            sparse=es["sparse"], redense=es["redense"])

    trainer = TrainerConfig(arch=arch, dense=dense, sparse=sparse, redense=redense,
                            momentum=phases["momentum"], swd=swd,
                            sparsity_initial=pr["initial_sparsity"],
                            sparsity_final=pr["final_sparsity"],
                            early_stop=early, grad_clip_norm=clip)

    qc = _take(top["quantization"], {"q_min": -128, "q_max": 127,
                                     "fixed_range": False}, "quantization")
    quant = QuantConfig(q_min=qc["q_min"], q_max=qc["q_max"], fixed_range=qc["fixed_range"])

    return RunConfig(seed=top["seed"], schema=schema, ratios=ratios, trainer=trainer,
                     quant=quant)


def load_config(path: str | None) -> RunConfig:
    """Load a config file; a missing path yields pure defaults (no schema)."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(doc)
