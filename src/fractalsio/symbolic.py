"""Symbolic words over the alphabet {1, ..., N}.

Finite words are tuples of 1-based letters.  Eventually periodic streams are
``EPWord(pre, period)`` with a nonempty period; they address points of the
attractor through the coding map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, InputError, integer


def validate_word(word, n_letters=None) -> tuple:
    """Return ``word`` as a tuple of ints, checking letters are in range."""
    try:
        w = tuple(int(a) for a in word)
        if any(a != b for a, b in zip(w, word)):
            raise ValueError("non-integral letter")
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"word must be an iterable of integers, got {word!r}")
    for i, a in enumerate(w):
        if a < 1:
            raise InputError(f"letters are 1-based, got {a} at position {i}")
        if n_letters is not None and a > n_letters:
            raise InputError(
                f"letter {a} at position {i} exceeds alphabet size {n_letters}"
            )
    return w


@dataclass(frozen=True)
class EPWord:
    """Eventually periodic word pre . period period period ..."""

    pre: tuple = ()
    period: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pre", validate_word(self.pre))
        object.__setattr__(self, "period", validate_word(self.period))
        if len(self.period) == 0:
            raise InputError("period must be nonempty")

    def letter(self, i: int) -> int:
        i = integer(i, "letter index", 0)
        if i < len(self.pre):
            return self.pre[i]
        return self.period[(i - len(self.pre)) % len(self.period)]

    def prefix(self, n: int) -> tuple:
        return tuple(self.letter(i) for i in range(integer(n, "prefix length", 0)))

    def is_periodic(self) -> bool:
        return len(self.pre) == 0

    def to_config(self) -> dict:
        return {"pre": list(self.pre), "period": list(self.period)}

    @classmethod
    def from_config(cls, cfg: dict) -> "EPWord":
        if not isinstance(cfg, dict) or "period" not in cfg:
            raise ConfigError("EPWord config must be a dict with a 'period' key")
        return cls(tuple(cfg.get("pre", ())), tuple(cfg["period"]))
