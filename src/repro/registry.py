"""Name-based registry of streaming compressors.

One place maps short codec names to :class:`~repro.core.engine.Compressor`
factories, so the CLI, the workloads and the benchmarks all select codecs
the same way::

    from repro import registry

    compressor = registry.get("gd", identifier_bits=15)
    blob = b"".join(compressor.compress_stream(blocks))

Formats are also *sniffable*: every registered compressor carries a magic
prefix, and :func:`sniff` maps the first bytes of a stream back to the codec
name — this is how ``repro decompress`` picks the right decoder without a
``--codec`` flag.

The registry ships with the four built-ins (``gd``, ``gzip``, ``dedup``,
``null``); downstream code can :func:`register` additional factories.

Next to the compressor registry lives the **codec-backend** registry
(re-exported from :mod:`repro.core.backends`): the ``pure`` and ``numpy``
implementations of the GD batch hot paths.  Backends are
orthogonal to codecs — every codec built here accepts ``backend=...`` —
and bit-identical to one another, so they select performance, never
format::

    registry.get("gd", backend="numpy")   # explicit vectorized backend

>>> from repro import registry
>>> registry.names()
['dedup', 'gd', 'gzip', 'null']
>>> registry.backend_names()
['numpy', 'pure']
>>> registry.sniff(registry.magic_for("gd") + b"...")
'gd'
>>> blocks = registry.get("null").compress_stream([b"payload"])
>>> b"".join(registry.get("null").decompress_stream(blocks))
b'payload'
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.backends import (
    available_backend_names,
    backend_names,
    backend_status,
    default_backend,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.core.engine import (
    Compressor,
    DedupStreamCompressor,
    GDStreamCompressor,
    GzipStreamCompressor,
    NullStreamCompressor,
)
from repro.exceptions import ReproError

__all__ = [
    "register",
    "get",
    "names",
    "sniff",
    "magic_for",
    "get_for_header",
    # codec-backend registry (repro.core.backends)
    "available_backend_names",
    "backend_names",
    "backend_status",
    "default_backend",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

_FACTORIES: Dict[str, Callable[..., Compressor]] = {}
_MAGICS: Dict[str, bytes] = {}


def register(
    name: str,
    factory: Callable[..., Compressor],
    magic: Optional[bytes] = None,
    replace: bool = False,
) -> None:
    """Register a compressor factory under ``name``.

    ``factory`` is any callable returning a :class:`Compressor` (typically
    the class itself).  ``magic`` defaults to the factory's ``magic``
    attribute and is used by :func:`sniff`; pass ``b""`` to opt out of
    sniffing.  Re-registering an existing name raises unless ``replace``
    is true.
    """
    key = name.lower()
    if not key:
        raise ReproError("compressor name cannot be empty")
    if key in _FACTORIES and not replace:
        raise ReproError(f"compressor {name!r} is already registered")
    if magic is None:
        magic = getattr(factory, "magic", b"")
    _FACTORIES[key] = factory
    _MAGICS[key] = bytes(magic)


def get(name: str, **parameters: object) -> Compressor:
    """Construct the compressor registered under ``name``.

    Keyword arguments are forwarded to the factory, so
    ``get("gd", order=8, identifier_bits=15)`` parameterises the codec the
    same way direct construction would.
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ReproError(
            f"unknown compressor {name!r}; available: {', '.join(names())}"
        ) from None
    return factory(**parameters)


def names() -> List[str]:
    """Registered compressor names, sorted."""
    return sorted(_FACTORIES)


def magic_for(name: str) -> bytes:
    """The magic prefix of a registered compressor (may be empty)."""
    try:
        return _MAGICS[name.lower()]
    except KeyError:
        raise ReproError(
            f"unknown compressor {name!r}; available: {', '.join(names())}"
        ) from None


def sniff(header: bytes) -> Optional[str]:
    """Identify the compressor that produced a stream from its first bytes.

    Returns the registered name whose magic is the longest prefix match of
    ``header``, or ``None`` when nothing matches.
    """
    best: Optional[str] = None
    best_length = 0
    for name, magic in _MAGICS.items():
        if magic and len(magic) > best_length and header.startswith(magic):
            best = name
            best_length = len(magic)
    return best


def get_for_header(header: bytes, **parameters: object) -> Compressor:
    """Construct the compressor matching a stream's leading bytes."""
    name = sniff(header)
    if name is None:
        raise ReproError(
            f"unrecognised stream format (header {header[:8]!r}); "
            f"known formats: {', '.join(names())}"
        )
    return get(name, **parameters)


# -- built-ins -----------------------------------------------------------------

register("gd", GDStreamCompressor)
register("gzip", GzipStreamCompressor)
register("dedup", DedupStreamCompressor)
register("null", NullStreamCompressor)
