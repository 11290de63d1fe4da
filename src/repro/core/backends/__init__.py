"""Pluggable codec backends for the GD batch hot paths.

The per-chunk work of the GD transformation was fused into table lookups in
the ``pure`` fast path; what remains is the per-chunk *Python* cost of the
loop itself.  A backend replaces the loop: it computes the syndromes,
bases and deviations of every chunk in a buffer with whole-buffer
primitives — the software analogue of widening a hardware CRC engine's
datapath (LiteEth unrolls the LFSR across a word and emits one XOR network
per output bit; the ``numpy`` backend unrolls it across the whole trace and
emits a handful of ndarray gathers).

Two backends are registered:

``pure``
    The existing fused byte-lane path.  Always available, and the
    reference every other backend must match bit for bit.
``numpy``
    Whole-buffer batch syndrome/parity computation via precomputed
    per-byte-lane XOR-fold tables applied as ndarray gathers, batch
    split/join over a single ``np.frombuffer`` view, vectorized deviation
    extraction.  Available only when :mod:`numpy` is importable (the
    ``fast`` optional dependency).

Selection precedence (first match wins):

1. per-call / per-object: ``GDTransform(backend="numpy")``;
2. per-process: the ``REPRO_GD_BACKEND`` environment variable;
3. automatic: the available backend with the highest priority.

Requesting a backend that is not available raises
:class:`~repro.exceptions.BackendError` with the probe's reason, so a
misconfigured deployment fails loudly instead of silently running slow.
Steps 1 and 2 are settled when a ``GDTransform`` is constructed; step 3
probes every backend (it imports numpy), so the transform leaves it to its
first batch call.
The registry is re-exported through :mod:`repro.registry` next to the
compressor registry.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import wire
from repro.exceptions import BackendError

__all__ = [
    "BACKEND_ENV",
    "MIN_BATCH_CHUNKS",
    "BatchSplit",
    "CodecBackend",
    "available_backend_names",
    "backend_names",
    "batch_backend",
    "backend_status",
    "default_backend",
    "get_backend",
    "named_backend",
    "register_backend",
    "resolve_backend",
]

#: Environment switch naming the process-wide backend (selection step 2).
BACKEND_ENV = "REPRO_GD_BACKEND"

#: Batches smaller than this stay on the pure in-process loop even when an
#: accelerated backend is selected: below a few chunks the fixed cost of
#: entering the vectorized path (array views, gather set-up) exceeds the
#: whole loop, and the switch models feed single-digit batches.
MIN_BATCH_CHUNKS = 16


class BatchSplit:
    """Columnar result of a whole-buffer GD split.

    The accelerated backends naturally produce the split as parallel
    columns (a prefix array, a deviation array, the basis rows as a byte
    matrix) rather than a list of per-chunk tuples; this wrapper carries
    that representation and materialises the classic
    ``[(prefix, basis, deviation), ...]`` list lazily, so batch consumers
    that only need one column (deviation histograms, basis dedup scans)
    never pay for the rest.

    A basis is its *row* (``ceil(k / 8)`` big-endian bytes, the dictionary's
    key) from the split to the join; only :meth:`columns` makes it an ``int``.

    Instances compare equal when their materialised fields are equal,
    regardless of which backend produced them — the equality the property
    suite asserts across backends.
    """

    __slots__ = ("count", "backend", "_fields", "_columns", "_native", "_cols")

    def __init__(
        self,
        count: int,
        backend: str,
        columns: Callable[[], Tuple[Sequence[int], List[bytes], Sequence[int]]],
        fields: Optional[List[Tuple[int, int, int]]] = None,
    ):
        self.count = count
        self.backend = backend
        self._fields = fields
        self._columns = columns
        self._native: Optional[Tuple[Sequence[int], List[bytes], Sequence[int]]] = None
        self._cols: Optional[Tuple[List[int], List[int], List[int]]] = None

    def fields(self) -> List[Tuple[int, int, int]]:
        """The split as ``(prefix, basis, deviation)`` tuples (cached)."""
        if self._fields is None:
            self._fields = list(zip(*self.columns()))
        return self._fields

    def native(self) -> Tuple[Sequence[int], List[bytes], Sequence[int]]:
        """The columns as the producing backend's kernels exchange them: the
        basis column always a ``list`` of rows (the dictionary reads it key
        by key), the other two lists from ``pure`` and ndarrays from
        ``numpy`` — those go nowhere but back to a kernel of
        :attr:`backend`; everyone else reads :meth:`columns`."""
        if self._native is None:
            self._native = self._columns()
            self._columns = None  # the thunk's captured buffers can go
        return self._native

    def columns(self) -> Tuple[List[int], List[int], List[int]]:
        """The split as three parallel lists of plain ``int`` (cached),
        without the per-chunk tuple zip of :meth:`fields`."""
        if self._cols is None:
            if self._fields is not None:
                self._cols = tuple(map(list, zip(*self._fields))) or ([], [], [])
            else:
                prefixes, rows, deviations = self.native()
                if not isinstance(deviations, list):
                    prefixes, deviations = prefixes.tolist(), deviations.tolist()
                bases = [int.from_bytes(row, "big") for row in rows]
                self._cols = (prefixes, bases, deviations)
        return self._cols

    def bases(self) -> List[bytes]:
        """The basis rows (deduplication units, the dictionary's keys)."""
        return self.native()[1]

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchSplit):
            return NotImplemented
        return self.fields() == other.fields()

    def __repr__(self) -> str:
        return f"BatchSplit(count={self.count}, backend={self.backend!r})"


class CodecBackend:
    """Interface every codec backend implements.

    A backend accelerates the batch kernels the record pipeline funnels
    through: forward split (:meth:`split_batch_columns`), bulk parity
    recovery (:meth:`parities_of_bases`), the whole-batch inverse
    (:meth:`join_batch_to_bytes`), batch CRC (:meth:`crc_batch`) and the
    GDZ1 record packer / parser (``pack_records`` / ``parse_records``).
    The ``supports_*`` predicates gate each operation per configuration;
    ineligible configurations transparently stay on the pure path, so a
    backend never has to cover the full parameter space to be useful.

    Equivalence contract: for every configuration a backend claims support
    for, its outputs must be **bit-identical** to the reference path —
    same splits, same eviction order, same containers.  The property suite
    (``tests/core/test_backends.py``) enforces this across the full
    matrix.
    """

    #: Registry name (also the ``REPRO_GD_BACKEND`` value).
    name: str = ""
    #: Auto-selection rank; the available backend with the highest value wins.
    priority: int = 0
    #: True for backends that replace the in-process loop.  The dispatchers
    #: only leave the pure path for accelerated backends.
    accelerated: bool = False

    # -- availability -----------------------------------------------------

    def available(self) -> bool:
        """True when the backend can run in this process."""
        return True

    def availability_detail(self) -> str:
        """Human-readable availability note (version, or why unavailable)."""
        return "always available"

    # -- eligibility ------------------------------------------------------

    def supports_transform(self, transform) -> bool:
        """True when this backend can split batches for ``transform``."""
        return True

    def supports_parity(self, code) -> bool:
        """True when this backend can bulk-recover parities for ``code``."""
        return True

    def supports_join(self, transform) -> bool:
        """True when this backend can batch-join chunks for ``transform``."""
        return True

    def supports_records(self, layout: "wire.RecordLayout") -> bool:
        """True when this backend packs and parses records of ``layout``."""
        return True

    def supports_crc_batch(self, parameters) -> bool:
        """True when this backend can batch-compute CRCs for ``parameters``.

        ``parameters`` is a :class:`repro.core.crc.CrcParameters`.  The
        default is ``False``: batch CRC support is opt-in per backend, and
        :meth:`CrcEngine.compute_batch` falls back to its pure per-byte
        fold for backends that decline.
        """
        return False

    # -- operations -------------------------------------------------------

    def split_batch_columns(self, transform, data) -> BatchSplit:
        """Buffer of whole chunks → columnar :class:`BatchSplit`."""
        raise NotImplementedError

    def parities_of_bases(self, code, bases: Sequence[int]) -> Sequence[int]:
        """Parity bits of many bases (element ``i`` for ``bases[i]``)."""
        raise NotImplementedError

    def join_batch_to_bytes(
        self,
        transform,
        prefixes: Sequence[int],
        bases: bytes,
        deviations: Sequence[int],
    ) -> bytes:
        """Rebuild and serialise every chunk of a resolved batch; ``bases``
        holds the basis rows back to back."""
        raise NotImplementedError

    def crc_batch(self, engine, data, record_bits: int) -> List[int]:
        """CRC of every fixed-size record in ``data``: a non-empty whole
        number of records, as :meth:`repro.core.crc.CrcEngine.compute_batch`
        (the caller) has already checked."""
        raise NotImplementedError

    #: The GDZ1 record packer and parser serving this backend's batches;
    #: the defaults are the per-record loops of :mod:`repro.core.wire` (the
    #: oracle, same signatures).  ``pack_records`` receives the columns of
    #: a batch this backend split (:meth:`BatchSplit.native`), for a layout
    #: inside its :meth:`supports_records` envelope only;
    #: ``parse_records`` always returns ``keys`` as a list (an ``int``
    #: identifier per type-3 record, a basis row per type-2 record) and
    #: may return the prefix and deviation columns in its own
    #: representation only for a batch whose join it also serves.
    pack_records = staticmethod(wire.pack_records)
    parse_records = staticmethod(wire.parse_records)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


# -- registry ------------------------------------------------------------------

_BACKENDS: Dict[str, CodecBackend] = {}


def register_backend(backend: CodecBackend, replace: bool = False) -> None:
    """Register a backend instance under its :attr:`~CodecBackend.name`.

    Re-registering an existing name raises unless ``replace`` is true —
    the hook an out-of-tree implementation uses to take over a name.
    """
    name = (backend.name or "").lower()
    if not name:
        raise BackendError("codec backend name cannot be empty")
    if name in _BACKENDS and not replace:
        raise BackendError(f"codec backend {backend.name!r} is already registered")
    _BACKENDS[name] = backend


def backend_names() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(_BACKENDS)


def available_backend_names() -> List[str]:
    """Names of the backends that can run in this process, sorted."""
    return sorted(name for name, backend in _BACKENDS.items() if backend.available())


def get_backend(name: str) -> CodecBackend:
    """The registered backend called ``name`` (available or not)."""
    try:
        return _BACKENDS[name.lower()]
    except KeyError:
        raise BackendError(
            f"unknown codec backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        ) from None


def default_backend() -> CodecBackend:
    """The best available backend (highest priority; selection step 3)."""
    best: Optional[CodecBackend] = None
    for backend in _BACKENDS.values():
        if not backend.available():
            continue
        if best is None or backend.priority > best.priority:
            best = backend
    if best is None:  # pragma: no cover - pure is always available
        raise BackendError("no codec backend is available")
    return best


def named_backend(
    selection: Union[None, str, CodecBackend] = None
) -> Optional[CodecBackend]:
    """The backend a caller or the environment *names*, else ``None``.

    ``selection`` is a per-call override (name or instance).  When it is
    ``None``, the ``REPRO_GD_BACKEND`` environment variable is consulted.
    ``None`` comes back for the unnamed default — nothing selected, or
    ``auto`` — which is :func:`default_backend`'s to decide; answering
    that probes every backend (it imports numpy), naming one does not.
    Naming a registered-but-unavailable backend raises
    :class:`~repro.exceptions.BackendError` carrying the probe's reason.
    """
    source = "requested"
    if selection is None:
        selection = os.environ.get(BACKEND_ENV, "").strip().lower() or None
        source = f"named by {BACKEND_ENV}"
    if selection is None or selection == "auto":
        return None
    if isinstance(selection, CodecBackend):
        backend = selection
    else:
        backend = get_backend(selection)
    if not backend.available():
        raise BackendError(
            f"codec backend {backend.name!r} ({source}) is not available: "
            f"{backend.availability_detail()}"
        )
    return backend


def resolve_backend(
    selection: Union[None, str, CodecBackend] = None
) -> CodecBackend:
    """Resolve a backend following the documented precedence: the one
    :func:`named_backend` finds, else the best available."""
    return named_backend(selection) or default_backend()


def batch_backend(
    backend: CodecBackend,
    count: int,
    supports: Callable[[object], bool],
    subject: object,
    forced: bool = False,
) -> CodecBackend:
    """The backend that serves one batch: ``backend`` or ``pure``.

    The single eligibility gate of every batch entry point: ``backend``
    runs when it is accelerated, the batch holds at least
    :data:`MIN_BATCH_CHUNKS` items (``forced`` waives the size floor for a
    backend the caller named explicitly) and its ``supports`` predicate —
    one of the bound ``backend.supports_*`` methods — accepts ``subject``.
    Everything else stays on the ``pure`` backend.
    """
    if (
        backend.accelerated
        and (forced or count >= MIN_BATCH_CHUNKS)
        and supports(subject)
    ):
        return backend
    return _BACKENDS["pure"]


def backend_status() -> List[Dict[str, object]]:
    """One status row per registered backend (the ``codecs --backends`` view).

    ``crc_batch`` reports whether the backend accelerates whole-batch CRC
    folding (probed with the order-8 syndrome parameters, the GD hot
    configuration); the pure slice-by-N fold is always available as the
    fallback, so ``False`` means "falls back", not "cannot compute".
    """
    from repro.core.crc import CrcParameters  # local: crc lazily imports us

    probe = CrcParameters(polynomial=0x1D, width=8, augment=False)
    default_name = default_backend().name
    rows: List[Dict[str, object]] = []
    for name in backend_names():
        backend = _BACKENDS[name]
        rows.append(
            {
                "name": name,
                "available": backend.available(),
                "priority": backend.priority,
                "default": name == default_name,
                "crc_batch": backend.available()
                and backend.supports_crc_batch(probe),
                "detail": backend.availability_detail(),
            }
        )
    return rows


# -- built-ins -----------------------------------------------------------------

from repro.core.backends.numpy_backend import NumpyBackend  # noqa: E402
from repro.core.backends.pure import PureBackend  # noqa: E402

register_backend(PureBackend())
register_backend(NumpyBackend())
