"""Value checks for untrusted documents — the repository's one validator.

Topology specs, fault plans and experiment specs all arrive as JSON a user
wrote; every field goes through a :class:`Validator` bound to the error
class of the document being read, so the only thing a malformed document
can raise is that :class:`~repro.exceptions.ReproError` subclass.  Every
message reads ``"<where>: <name> must be …, got <value>"`` — *where* names
the offending entry (``link 'uplink'``, ``faults.restarts[0]``, ``base``),
*name* the field.

Numbers must be finite: ``nan`` compares false against every bound, so a
plain ``value <= 0`` check lets it through, and ``inf`` turns into an
event that is never reached.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, List, Mapping, Optional, Sequence, Type

from repro.exceptions import ReproError

__all__ = ["Validator"]


def _shown(value: Any) -> str:
    """``repr(value)`` for an error message, bounded: a hostile document's
    megabyte list must not become a megabyte message, and ``repr`` of an
    integer past the interpreter's digit limit raises ``ValueError``."""
    try:
        text = repr(value)
    except ValueError:
        return f"<unprintable {type(value).__name__}>"
    return text if len(text) <= 120 else f"{text[:117]}..."


class Validator:
    """Typed value checks that raise one caller-chosen error class."""

    def __init__(self, error: Type[ReproError]) -> None:
        self.error = error

    def failure(self, where: str, message: str) -> ReproError:
        """The error to raise for ``where`` (callers ``raise`` it)."""
        return self.error(f"{where}: {message}")

    def rejected(self, where: str, name: str, kind: str, value: Any) -> ReproError:
        """The error for a ``value`` that is not ``kind`` (shown bounded)."""
        return self.failure(where, f"{name} must be {kind}, got {_shown(value)}")

    # -- strings and flags ---------------------------------------------------

    def string(self, where: str, name: str, value: Any) -> str:
        if not isinstance(value, str) or not value:
            raise self.rejected(where, name, "a non-empty string", value)
        return value

    def choice(self, where: str, name: str, value: Any, options: Sequence[str]) -> str:
        if not isinstance(value, str) or value not in options:
            raise self.failure(
                where,
                f"{name} must be one of {', '.join(options)}; got {_shown(value)}",
            )
        return value

    def boolean(self, where: str, name: str, value: Any) -> bool:
        """A real JSON boolean — ``"false"`` and ``0`` are not flags."""
        if not isinstance(value, bool):
            raise self.rejected(where, name, "true or false", value)
        return value

    # -- integers --------------------------------------------------------------

    def _integer(
        self,
        where: str,
        name: str,
        value: Any,
        kind: str,
        minimum: Optional[int],
        maximum: Optional[int],
    ) -> int:
        if (
            not isinstance(value, int)
            or isinstance(value, bool)
            or (minimum is not None and value < minimum)
        ):
            raise self.rejected(where, name, kind, value)
        if maximum is not None and value > maximum:
            raise self.rejected(where, name, f"at most {maximum}", value)
        return value

    def integer(self, where: str, name: str, value: Any) -> int:
        return self._integer(where, name, value, "an integer", None, None)

    def positive_int(
        self, where: str, name: str, value: Any, maximum: Optional[int] = None
    ) -> int:
        return self._integer(where, name, value, "a positive integer", 1, maximum)

    def non_negative_int(
        self, where: str, name: str, value: Any, maximum: Optional[int] = None
    ) -> int:
        return self._integer(where, name, value, "a non-negative integer", 0, maximum)

    # -- numbers -----------------------------------------------------------------

    def _number(
        self, where: str, name: str, value: Any, kind: str, low: float, high: float
    ) -> float:
        """A finite real number within ``[low, high]``, as a float."""
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
            # nan fails every comparison, so it is rejected here too.
            if math.isfinite(number) and low <= number <= high:
                return number
        raise self.rejected(where, name, kind, value)

    def positive_number(self, where: str, name: str, value: Any) -> float:
        kind = "a positive finite number"
        number = self._number(where, name, value, kind, 0.0, math.inf)
        if number == 0.0:
            raise self.rejected(where, name, kind, value)
        return number

    def non_negative_number(self, where: str, name: str, value: Any) -> float:
        return self._number(
            where, name, value, "a non-negative finite number", 0.0, math.inf
        )

    def probability(self, where: str, name: str, value: Any) -> float:
        return self._number(where, name, value, "a number within [0, 1]", 0.0, 1.0)

    # -- containers --------------------------------------------------------------

    def mapping(self, where: str, name: str, value: Any) -> Mapping[str, Any]:
        if not isinstance(value, Mapping):
            raise self.rejected(where, name, "a mapping", value)
        return value

    def sequence(self, where: str, name: str, value: Any) -> List[Any]:
        if not isinstance(value, (list, tuple)):
            raise self.rejected(where, name, "a list", value)
        return list(value)

    def record(self, where: str, data: Any, cls: type) -> Mapping[str, Any]:
        """``data`` as the document form of dataclass ``cls``: a mapping with
        no key that is not a field, and every field that has no default."""
        data = self.mapping(where, "entry", data)
        specs = dataclasses.fields(cls)
        self.known_keys(where, data, [spec.name for spec in specs])
        missing = [
            spec.name
            for spec in specs
            if spec.name not in data
            and spec.default is dataclasses.MISSING
            and spec.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise self.failure(where, f"missing keys: {', '.join(missing)}")
        return data

    def known_keys(
        self, where: str, data: Mapping[str, Any], known: Sequence[str]
    ) -> None:
        unknown = sorted(str(key) for key in set(data) - set(known))
        if unknown:
            raise self.failure(
                where,
                f"unknown keys: {', '.join(unknown)} "
                f"(expected {', '.join(known)})",
            )
