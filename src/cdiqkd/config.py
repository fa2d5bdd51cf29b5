"""Experiment configuration: validation, file loading, flag overlay."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict, fields

from .devices import make_device
from .etcf import EtcfParams
from .keyrate import KeyRateParams
from .postprocess import RECON_SCHEMES
from .protocol import ProtocolParams


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def store_path(transcript: str, trapdoors: str | None) -> str:
    """The trapdoor store path: ``trapdoors`` if given, else ``transcript`` + ".keys"."""
    return trapdoors or transcript + ".keys"


def epsilon_in_range(epsilon: float) -> bool:
    """Whether a run takes ``epsilon``: [0, 1), where a session takes [0, 1]."""
    return 0.0 <= epsilon < 1.0


# The family and rate-bound defaults are those of the parameter classes.
_ETCF = EtcfParams()
_RATE = KeyRateParams()


@dataclass
class ExperimentConfig:
    rounds: int = 1024
    epsilon: float = 0.05
    etcf: str = _ETCF.family
    domain_bits: int = _ETCF.domain_bits
    lattice_n: int = _ETCF.n
    lattice_m: int = _ETCF.m
    lattice_q: int = _ETCF.q
    device: str = "honest"
    seed: int = 0
    transcript: str | None = None
    summary: str | None = None
    trapdoors: str | None = None
    recon: str = "hamming74"
    eps_sec: float = 2.0**-32
    bound_constant: float = _RATE.constant_big_c
    bound_exponent: float = _RATE.exponent_c
    negl_term: float = _RATE.negl_term

    def validate(self) -> None:
        """Raise ConfigError for any value the run would reject, before it runs.

        The session and rate-bound parameters own their ranges; epsilon, which
        both take, is first checked here against the range a run takes, so
        that it has one message.  The files a run writes must be different
        files, and a trapdoor store is written only beside a transcript.
        """
        if not epsilon_in_range(self.epsilon):
            raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.recon not in RECON_SCHEMES:
            schemes = " or ".join(map(repr, RECON_SCHEMES))
            raise ConfigError(f"recon must be {schemes}, got {self.recon!r}")
        if not 0.0 < self.eps_sec < 1.0:
            raise ConfigError(f"eps_sec must be in (0, 1), got {self.eps_sec}")
        try:
            make_device(self.device)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"device {self.device!r}: {exc}") from exc
        try:
            self.protocol_params().validate()
            self.keyrate_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.trapdoors and not self.transcript:
            raise ConfigError("trapdoors names a transcript's store: give a transcript too")
        outputs = [self.summary] if self.summary else []
        if self.transcript:
            outputs += [self.transcript, store_path(self.transcript, self.trapdoors)]
        if len({os.path.realpath(path) for path in outputs}) < len(outputs):
            raise ConfigError(f"summary, transcript and trapdoor store name one file: {outputs}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        config = cls(**_checked_fields(data))
        config.validate()
        return config

    def to_dict(self) -> dict:
        return asdict(self)

    def etcf_params(self) -> EtcfParams:
        return EtcfParams(
            self.etcf, self.domain_bits, self.lattice_n, self.lattice_m, self.lattice_q
        )

    def protocol_params(self) -> ProtocolParams:
        return ProtocolParams(rounds=self.rounds, epsilon=self.epsilon, etcf=self.etcf_params())

    def keyrate_params(self) -> KeyRateParams:
        # A zero threshold leaves the bound's epsilon at the smallest positive
        # value the formula accepts in reports.
        epsilon = self.epsilon if self.epsilon > 0 else 1e-300
        return KeyRateParams(
            epsilon=epsilon,
            exponent_c=self.bound_exponent,
            constant_big_c=self.bound_constant,
            negl_term=self.negl_term,
        )


# Value type of each field, read from its annotation; the CLI's flag types
# come from the same table.
_ANNOTATION_TYPES = {"int": int, "float": float, "str": str, "str | None": str}
FIELD_TYPES = {f.name: _ANNOTATION_TYPES[f.type] for f in fields(ExperimentConfig)}
_OPTIONAL = {f.name for f in fields(ExperimentConfig) if f.default is None}


def read_config_file(path: str) -> dict:
    """The fields a JSON config file sets, each of its field's type.

    The values are not validated together: the command line lays its flags
    over them first, and ``ExperimentConfig.from_dict`` validates the result.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return _checked_fields(data)


def _checked_fields(data: dict) -> dict:
    """``data``, once each key is a field and each value of its field's type."""
    for key, value in data.items():
        if key not in FIELD_TYPES:
            raise ConfigError(f"unknown config key: {key}")
        _check_value(key, value)
    return data


def _check_value(name: str, value) -> None:
    """Reject a config-file value of the wrong JSON type for its field.

    Bools never pass for numbers; a float field takes an int unconverted,
    so the config echoed into summaries keeps its bytes; optional paths
    take null.
    """
    if value is None and name in _OPTIONAL:
        return
    kind = FIELD_TYPES[name]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {name} must be {kind.__name__}, got {value!r}")
