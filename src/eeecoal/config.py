"""Line-oriented ``key = value`` experiment config files.

Repeating a key builds a list (that is how grids are written); there is no
nesting.  Blank lines and ``#`` comments are ignored.
"""

import math
import re
from pathlib import Path


class ConfigError(ValueError):
    pass


_CALL_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?$")


def parse_call(text: str, what: str) -> tuple[str, list[str]]:
    """Split ``name`` or ``name(a, b)`` into the name and its argument texts."""
    m = _CALL_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{what}: cannot parse {text!r}")
    name, argstr = m.group(1), m.group(2)
    return name, [a.strip() for a in argstr.split(",")] if argstr else []


def parse_config(path: str | Path) -> dict[str, list[str]]:
    pairs: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ConfigError(f"{path}: line {lineno}: empty key or value in {line!r}")
            pairs.setdefault(key, []).append(value)
    return pairs


class Config:
    """Typed accessors over parsed pairs, with unknown-key detection."""

    def __init__(self, pairs: dict[str, list[str]], source: str = "<config>"):
        self.pairs = pairs
        self.source = source

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        return cls(parse_config(path), source=str(path))

    def check_known(self, allowed: set[str]) -> None:
        unknown = sorted(set(self.pairs) - allowed)
        if unknown:
            raise ConfigError(f"{self.source}: unknown keys: {', '.join(unknown)}")

    def _single(self, key: str) -> str | None:
        values = self.pairs.get(key)
        if values is None:
            return None
        if len(values) > 1:
            raise ConfigError(f"{self.source}: key {key!r} given {len(values)} times, expected once")
        return values[0]

    def _float(self, key: str, value: str) -> float:
        try:
            x = float(value)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r}: not a number: {value!r}") from None
        if not math.isfinite(x):
            raise ConfigError(f"{self.source}: key {key!r}: not a finite number: {value!r}")
        return x

    def get_str(self, key: str, default: str | None = None) -> str | None:
        value = self._single(key)
        return default if value is None else value

    def get_float(self, key: str, default: float | None = None) -> float | None:
        value = self._single(key)
        return default if value is None else self._float(key, value)

    def get_int(self, key: str, default: int | None = None) -> int | None:
        value = self._single(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r}: not an integer: {value!r}") from None

    def get_float_list(self, key: str) -> list[float]:
        return [self._float(key, value) for value in self.pairs.get(key, [])]

    def get_str_list(self, key: str) -> list[str]:
        return list(self.pairs.get(key, []))
