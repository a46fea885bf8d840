"""Exception types shared across the package, and the configs' JSON reader."""

import dataclasses
import math
import typing


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""


class DataFormatError(ValueError):
    """Malformed input file; the message names the byte offset or line."""


class UndefinedResultError(ValueError):
    """A statistic has no defined value for the given input."""


class CheckpointError(ValueError):
    """Unreadable or version-incompatible checkpoint."""


class TrainingError(RuntimeError):
    """Training aborted; the message carries epoch and patient context."""


def _read(hint, value):
    """`value`, a JSON value, as the annotation `hint` reads it: a tuple
    from an array, a float from a finite number, an int too, `X | None`
    from null; a bool is not an int. A TypeError when it is not one."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and args[-1:] == (Ellipsis,):
            args = args[:1] * len(value)
        if not isinstance(value, (list, tuple)) or len(args) != len(value):
            raise TypeError
        return tuple(map(_read, args, value))
    for option in args:             # a union
        try:
            return _read(option, value)
        except TypeError:
            pass
    if args:                        # a union none of whose options reads it
        raise TypeError
    kinds = (int, float) if hint is float else hint
    if (not isinstance(value, kinds) or (isinstance(value, bool) and hint is not bool)
            or (hint is float and not math.isfinite(value))):
        raise TypeError
    return value


class Config:
    """Base of the dataclass configs, read from and written to JSON objects
    by their own fields. `from_dict` gives a ConfigError for an unknown key
    or a value its field's annotation does not read (`_read`), then builds
    the config, which checks the values. `XConfig` names its keys "x"."""

    @classmethod
    def from_dict(cls, raw: dict):
        section = cls.__name__.removesuffix("Config").lower()
        if not isinstance(raw, dict):
            raise ConfigError(f"{section} config must be an object, got {raw!r}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(raw) - set(fields)
        if unknown:
            raise ConfigError(f"unknown {section} config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        values = {}
        for key, value in raw.items():
            try:
                values[key] = _read(hints[key], value)
            except TypeError:
                raise ConfigError(f"{section} config key '{key}' must be "
                                  f"{fields[key].type}, got {value!r}") from None
        return cls(**values)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
