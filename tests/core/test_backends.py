"""Property tests: every codec backend is bit-identical to the reference.

The backend matrix sweeps Hamming orders 3..8 × prefix widths × every
available backend and requires exact equality with the bit-serial
reference (``gd_oracle``, the ``HammingCode`` layer called by name) of
splits, columns, joins, batch decodes, container bytes and dictionary
state under eviction pressure.  The selection tests pin the
documented precedence (argument > ``REPRO_GD_BACKEND`` > best available)
and the error behaviour when a named backend is not importable — the
numpy-less case is simulated by monkeypatching the lazy probe, so the
test runs in every environment.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import registry
from repro.core import backends
from repro.core.backends import (
    MIN_BATCH_CHUNKS,
    BatchSplit,
    CodecBackend,
    numpy_backend,
)
from repro.core.bits import int_to_bytes
from repro.core.codec import GDCodec
from repro.core.decoder import GDDecoder
from repro.core.dictionary import BasisDictionary, EvictionPolicy
from repro.core.records import RawRecord, UncompressedRecord
from repro.core.transform import GDTransform
from repro.exceptions import BackendError, ChunkSizeError
from repro.workloads import SyntheticSensorWorkload

from gd_oracle import reference_join, reference_split_buffer, roundtrip

ORDERS = range(3, 9)
PREFIX_EXTRAS = (0, 1, 3, 7, 8, 9, 13, 17)

AVAILABLE = backends.available_backend_names()
ACCELERATED = [
    name
    for name in AVAILABLE
    if backends.get_backend(name).accelerated
]


def _random_buffer(transform, count, rng, clustered=False):
    """``count`` random chunks as one contiguous buffer."""
    code = transform.code
    chunks = []
    for _ in range(count):
        if clustered and rng.random() < 0.7:
            basis = rng.randrange(8)
            body = code.encode(basis)
            if rng.random() < 0.8:
                body ^= 1 << rng.randrange(code.n)
            value = (rng.getrandbits(transform.prefix_bits) << code.n) | body
        else:
            value = rng.getrandbits(transform.chunk_bits)
        chunks.append(value.to_bytes(transform.chunk_bytes, "big"))
    return b"".join(chunks)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert backends.backend_names() == ["numpy", "pure"]
        assert "pure" in AVAILABLE

    def test_pure_is_always_available(self):
        assert backends.get_backend("pure").available()

    def test_unknown_backend_errors_with_known_names(self):
        with pytest.raises(BackendError, match="unknown codec backend"):
            backends.get_backend("simd")
        with pytest.raises(BackendError, match="pure"):
            backends.resolve_backend("simd")

    def test_duplicate_registration_requires_replace(self, monkeypatch):
        monkeypatch.setattr(backends, "_BACKENDS", dict(backends._BACKENDS))

        class Dummy(CodecBackend):
            name = "pure"

        with pytest.raises(BackendError, match="already registered"):
            backends.register_backend(Dummy())
        backends.register_backend(Dummy(), replace=True)
        assert isinstance(backends.get_backend("pure"), Dummy)

    def test_backend_status_rows(self):
        rows = {row["name"]: row for row in backends.backend_status()}
        assert rows["pure"]["available"] is True
        assert sum(1 for row in rows.values() if row["default"]) == 1

    def test_registry_module_reexports_backend_registry(self):
        assert registry.backend_names() == backends.backend_names()
        assert registry.available_backend_names() == AVAILABLE
        assert registry.get_backend("pure") is backends.get_backend("pure")
        assert registry.default_backend().name == backends.default_backend().name


class TestSelection:
    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_GD_BACKEND", "simd")  # never consulted
        assert GDTransform(order=8, backend="pure").backend == "pure"

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_GD_BACKEND", "pure")
        assert GDTransform(order=8).backend == "pure"

    def test_auto_is_best_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_GD_BACKEND", raising=False)
        expected = max(
            (backends.get_backend(name) for name in AVAILABLE),
            key=lambda backend: backend.priority,
        ).name
        assert GDTransform(order=8).backend == expected
        assert GDTransform(order=8, backend="auto").backend == expected

    def test_numpy_selection_errors_clearly_without_numpy(self, monkeypatch):
        """``REPRO_GD_BACKEND=numpy`` on a numpy-less interpreter must fail
        with a message naming the backend and the missing dependency."""
        monkeypatch.setattr(
            numpy_backend,
            "_PROBE",
            (None, "numpy is not installed (No module named 'numpy'); "
                   "install the 'fast' extra to enable this backend"),
        )
        monkeypatch.setenv("REPRO_GD_BACKEND", "numpy")
        with pytest.raises(BackendError) as excinfo:
            GDTransform(order=8)
        message = str(excinfo.value)
        assert "numpy" in message
        assert "named by REPRO_GD_BACKEND" in message
        assert "not available" in message
        assert "fast" in message

    def test_auto_falls_back_to_pure_without_numpy(self, monkeypatch):
        monkeypatch.setattr(numpy_backend, "_PROBE", (None, "numpy is not installed"))
        monkeypatch.delenv("REPRO_GD_BACKEND", raising=False)
        transform = GDTransform(order=8)
        assert transform.backend == "pure"
        data = _random_buffer(transform, 40, random.Random(1))
        assert transform.split_batch_fields(data) == reference_split_buffer(
            transform, data
        )

    def test_codec_and_compressor_registry_accept_backend(self):
        for name in AVAILABLE:
            codec = GDCodec(identifier_bits=6, backend=name)
            assert codec.transform.backend == name
            assert codec.clone().transform.backend == name
            compressor = registry.get("gd", backend=name)
            assert compressor.codec().transform.backend == name


_NO_NUMPY_AFTER_A_TOPOLOGY_RUN = """
import sys
from repro.topology import rack_fan_in_topology, run_topology
spec = rack_fan_in_topology(
    racks=2, senders=2, chunks=40, bases=4, scenario="static", seed=7
)
assert run_topology(spec, workers=1).integrity.intact
print("numpy" in sys.modules)
from repro import registry
b"".join(registry.get("gd").compress_stream([bytes(4096)]))
print("numpy" in sys.modules)
"""


_STREAM_ROUND_TRIP = """
import hashlib, sys
from repro import registry
data = b"".join(bytes([value % 7]) * 32 for value in range(300)) + b"tail"
named = sys.argv[1] or None  # "": left to REPRO_GD_BACKEND
packed = b"".join(registry.get("gd", backend=named).compress_stream([data]))
fresh = registry.get("gd", backend=named)
assert b"".join(fresh.decompress_stream([packed])) == data
print("numpy" in sys.modules, hashlib.md5(packed).hexdigest())
"""


class TestLazyDefault:
    """Only the *unnamed* default waits for the first batch call: finding
    the best available backend imports numpy, and a simulator run — single
    chunks through the switches — never needs to know."""

    def test_topology_run_does_not_import_numpy(self):
        environment = {
            key: value for key, value in os.environ.items() if key != "REPRO_GD_BACKEND"
        }
        source = str(Path(backends.__file__).resolve().parents[3])
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source, environment.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_AFTER_A_TOPOLOGY_RUN],
            env=environment, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        # The first batch kernel call settles the default — on numpy, here.
        assert done.stdout.split() == ["False", str("numpy" in AVAILABLE)]

    @pytest.mark.parametrize("selector", ("argument", "environment"))
    def test_a_codec_named_pure_never_imports_numpy(self, selector):
        """Pack and parse are served by the codec's backend, not by whether
        numpy happens to be importable: a pure-named stream round trip
        leaves it unimported, a numpy-named one imports it, same bytes."""
        source = str(Path(backends.__file__).resolve().parents[3])
        outputs = {}
        for name in ("pure", "numpy"):
            if name not in AVAILABLE:
                continue
            environment = {
                key: value
                for key, value in os.environ.items()
                if key != "REPRO_GD_BACKEND"
            }
            environment["PYTHONPATH"] = os.pathsep.join(
                filter(None, [source, environment.get("PYTHONPATH")])
            )
            argument = name
            if selector == "environment":
                environment["REPRO_GD_BACKEND"] = name
                argument = ""
            done = subprocess.run(
                [sys.executable, "-c", _STREAM_ROUND_TRIP, argument],
                env=environment, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs[name] = done.stdout.split()
        assert outputs["pure"][0] == "False"
        for name, (imported, digest) in outputs.items():
            assert imported == str(name == "numpy")
            assert digest == outputs["pure"][1]

    def test_unnamed_default_probes_on_first_use_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_GD_BACKEND", raising=False)
        monkeypatch.setattr(numpy_backend, "_PROBE", None)
        transform = GDTransform(order=8)
        assert transform.split_fields(bytes(32)) == (0, 0, 0)
        assert numpy_backend._PROBE is None
        assert transform.backend == backends.default_backend().name
        assert numpy_backend._PROBE is not None

    def test_named_backend_is_still_checked_at_construction(self, monkeypatch):
        monkeypatch.setattr(numpy_backend, "_PROBE", (None, "numpy is not installed"))
        monkeypatch.delenv("REPRO_GD_BACKEND", raising=False)
        with pytest.raises(BackendError, match="requested.*not available"):
            GDTransform(order=8, backend="numpy")
        with pytest.raises(BackendError, match="unknown codec backend"):
            GDTransform(order=8, backend="simd")
        monkeypatch.setenv("REPRO_GD_BACKEND", "simd")
        with pytest.raises(BackendError, match="unknown codec backend"):
            GDTransform(order=8)


class TestBatchSplitApi:
    def test_columns_expose_fields_and_columns(self):
        transform = GDTransform(order=8, backend="pure")
        data = _random_buffer(transform, 40, random.Random(2))
        split = transform.split_batch_columns(data)
        fields = transform.split_batch_fields(data)
        assert split.fields() == fields
        assert len(split) == 40
        assert split.columns() == tuple(map(list, zip(*fields)))
        # The basis column is rows: ceil(247 / 8) big-endian bytes each.
        assert split.bases() == [basis.to_bytes(31, "big") for _, basis, _ in fields]
        elsewhere = BatchSplit(len(fields), "elsewhere", split.native)
        assert split == elsewhere and elsewhere.fields() == fields
        assert "BatchSplit" in repr(split)


def _leaves(value):
    """Every scalar inside nested dicts / lists / tuples / dataclasses."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    elif hasattr(value, "__dataclass_fields__"):
        yield from _leaves(vars(value))
    else:
        yield value


@pytest.mark.parametrize("backend_name", ACCELERATED)
class TestNoArrayScalarEscapes:
    """Array columns flow from a backend's kernel to its next kernel only:
    whatever a caller can read off a batch it served is plain ``int``
    (``numpy.uint32 << 247`` wraps silently, ``json.dumps`` rejects a
    ``numpy.uint8``)."""

    def _batch(self, backend_name, chunk_bits=264):
        codec = GDCodec(
            order=8, chunk_bits=chunk_bits, identifier_bits=4, backend=backend_name
        )
        data = _random_buffer(codec.transform, 96, random.Random(11), clustered=True)
        split = codec.transform.split_batch_columns(data)
        assert split.backend == backend_name
        return codec, data, split

    def test_split_and_batch_views_are_plain_ints(self, backend_name):
        codec, data, split = self._batch(backend_name)
        prefixes, bases, deviations = split.native()
        assert type(bases) is list and type(prefixes) is not list
        assert {type(row) for row in bases} == {bytes} and split.bases() is bases
        views = [split.columns(), split.fields()]
        batch = codec.encoder.encode_buffer_batch(data)
        assert {record.record_type.value for record in batch} == {2, 3}
        for record in list(batch) + list(batch.materialize()) + [batch[0], batch[-1]]:
            views.append(vars(record))
        assert all(type(leaf) in (int, str) for leaf in _leaves(views))
        pure = GDCodec(order=8, chunk_bits=264, identifier_bits=4, backend="pure")
        expected = pure.encoder.encode_buffer_batch(data)
        assert batch == expected and batch == tuple(expected)
        assert batch.pack_stream() == expected.pack_stream()

    def test_records_stats_snapshots_and_trace_args(self, backend_name):
        import json

        from repro import obs

        codec, data, _split = self._batch(backend_name)
        tracer = obs.enable()
        try:
            container = codec.compress_to_container(data)
            fresh = GDCodec.from_container_header(container)
            assert fresh.decompress_container(container) == data
            result = codec.compress(data)
            assert codec.decompress_records(result.records) == data
        finally:
            obs.disable()
        views = [event["args"] for event in tracer.sink.events]
        assert len(views) >= 4 * 96
        json.dumps(views)
        views += [vars(record) for record in result.records]
        for half in (codec.encoder, codec.decoder):
            views += [half.stats, half.stats.as_dict(), half.snapshot_state()]
            json.dumps(half.snapshot_state())
        assert all(
            type(leaf) in (int, str, float, bool, type(None)) for leaf in _leaves(views)
        )


def _reference_decode(transform, records, capacity):
    """Chunk values of ``records`` through the named reference join."""
    dictionary = BasisDictionary(capacity)
    chunks = []
    for record in records:
        if isinstance(record, RawRecord):
            chunks.append(record.chunk)
            continue
        if isinstance(record, UncompressedRecord):
            basis = record.basis
            dictionary.insert(basis)
        else:
            basis = dictionary.reverse_lookup(record.identifier)
            dictionary.touch(basis)
        chunks.append(reference_join(transform, record.prefix, basis, record.deviation))
    return chunks


@pytest.mark.parametrize("order", ORDERS)
class TestEquivalenceMatrix:
    """orders × prefix widths × available backends."""

    def test_splits_columns_and_joins_match_reference(self, order):
        rng = random.Random(order * 13)
        n = (1 << order) - 1
        for extra_bits in PREFIX_EXTRAS:
            chunk_bits = n + extra_bits
            transforms = {
                name: GDTransform(order=order, chunk_bits=chunk_bits, backend=name)
                for name in AVAILABLE
            }
            data = _random_buffer(transforms["pure"], 72, rng)
            expected = reference_split_buffer(transforms["pure"], data)
            for name, transform in transforms.items():
                assert transform.split_batch_fields(data) == expected, (
                    name,
                    order,
                    extra_bits,
                )
                columns = transform.split_batch_columns(data)
                assert columns.fields() == expected
            if chunk_bits % 8 == 0:
                prefixes = [prefix for prefix, _, _ in expected]
                bases = [basis for _, basis, _ in expected]
                deviations = [deviation for _, _, deviation in expected]
                for name, transform in transforms.items():
                    backend = transform.backend_impl
                    if not (backend.accelerated and backend.supports_join(transform)):
                        continue
                    rows = b"".join(
                        int_to_bytes(basis, transform.basis_bits) for basis in bases
                    )
                    assert (
                        backend.join_batch_to_bytes(
                            transform, prefixes, rows, deviations
                        )
                        == data
                    ), (name, order, extra_bits)

    def test_batch_decode_matches_reference(self, order):
        rng = random.Random(order * 17)
        for name in AVAILABLE:
            codec = GDCodec(order=order, identifier_bits=5, backend=name)
            data = _random_buffer(codec.transform, 90, rng, clustered=True)
            records = list(codec.compress(data).records)
            # interleave raw records to exercise the mixed decode path
            raw = RawRecord(chunk=0, chunk_bits=codec.transform.chunk_bits)
            mixed = records[:3] + [raw] + records[3:] + [raw]
            expected = _reference_decode(codec.transform, mixed, 1 << 5)
            size = codec.transform.chunk_bytes

            backend_decoder = GDDecoder(
                GDTransform(order=order, backend=name), BasisDictionary(1 << 5)
            )
            pure_decoder = GDDecoder(
                GDTransform(order=order, backend="pure"), BasisDictionary(1 << 5)
            )
            assert backend_decoder.decode_batch(mixed) == expected
            assert pure_decoder.decode_batch(mixed) == expected
            assert backend_decoder.stats.as_dict() == pure_decoder.stats.as_dict()

            bytes_decoder = GDDecoder(
                GDTransform(order=order, backend=name), BasisDictionary(1 << 5)
            )
            assert bytes_decoder.decode_batch_to_bytes(mixed) == b"".join(
                chunk.to_bytes(size, "big") for chunk in expected
            )
            assert bytes_decoder.stats.as_dict() == pure_decoder.stats.as_dict()

    def test_bulk_parities_match_reference(self, order):
        rng = random.Random(order * 19)
        code = GDTransform(order=order, backend="pure").code
        bases = [rng.getrandbits(code.k) for _ in range(60)] + [0, (1 << code.k) - 1]
        expected = [code.parity_of_basis(basis) for basis in bases]
        assert list(code.parities_of_bases(bases)) == expected
        for name in ACCELERATED:
            backend = backends.get_backend(name)
            assert (
                list(code.parities_of_bases(bases, backend=backend)) == expected
            ), name
            if backend.supports_parity(code):
                assert list(backend.parities_of_bases(code, bases)) == expected


class TestContainerEquivalence:
    @pytest.mark.parametrize("backend_name", AVAILABLE)
    def test_container_roundtrip_bit_identical(self, backend_name):
        data = b"".join(
            SyntheticSensorWorkload(
                num_chunks=400, distinct_bases=25, seed=6
            ).chunks()
        )
        pure_codec = GDCodec(order=8, identifier_bits=6, backend="pure")
        codec = GDCodec(order=8, identifier_bits=6, backend=backend_name)
        container = codec.compress_to_container(data)
        assert container == pure_codec.compress_to_container(data)
        assert codec.clone().decompress_container(container) == data

    @pytest.mark.parametrize("backend_name", AVAILABLE)
    def test_eviction_pressure_dictionary_state_identical(self, backend_name):
        """Tiny dictionary + seeded random eviction: every backend walks the
        same insert/evict sequence and ends in the same dictionary state."""
        data = b"".join(
            SyntheticSensorWorkload(
                num_chunks=600, distinct_bases=40, seed=9
            ).chunks()
        )
        snapshots = {}
        containers = {}
        for name in ("pure", backend_name):
            codec = GDCodec(
                order=8,
                identifier_bits=4,
                eviction_policy=EvictionPolicy.RANDOM,
                eviction_seed=4321,
                backend=name,
            )
            assert roundtrip(codec, data) == data
            containers[name] = codec.compress_to_container(data)
            codec.compress(data)
            snapshots[name] = codec.encoder.dictionary.snapshot()
        assert containers[backend_name] == containers["pure"]
        assert snapshots[backend_name] == snapshots["pure"]

    @pytest.mark.parametrize("backend_name", AVAILABLE)
    def test_env_forced_backend_full_roundtrip(self, backend_name, monkeypatch):
        monkeypatch.setenv("REPRO_GD_BACKEND", backend_name)
        codec = GDCodec(order=8, identifier_bits=6)
        assert codec.transform.backend == backend_name
        data = b"".join(
            SyntheticSensorWorkload(num_chunks=200, distinct_bases=12, seed=2).chunks()
        )
        assert roundtrip(codec, data) == data


class TestDispatchBoundaries:
    @pytest.mark.parametrize("backend_name", ACCELERATED)
    def test_small_batches_stay_correct(self, backend_name):
        transform = GDTransform(order=8, backend=backend_name)
        rng = random.Random(3)
        for count in (0, 1, MIN_BATCH_CHUNKS - 1, MIN_BATCH_CHUNKS):
            data = _random_buffer(transform, count, rng)
            assert transform.split_batch_fields(data) == reference_split_buffer(
                transform, data
            )

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    def test_invalid_chunk_value_raises_same_error(self, backend_name):
        transform = GDTransform(order=8, chunk_bits=255, backend=backend_name)
        pure = GDTransform(order=8, chunk_bits=255, backend="pure")
        bad = b"\xff" * (32 * (MIN_BATCH_CHUNKS + 4))
        with pytest.raises(ChunkSizeError) as backend_error:
            transform.split_batch_fields(bad)
        with pytest.raises(ChunkSizeError) as pure_error:
            pure.split_batch_fields(bad)
        assert str(backend_error.value) == str(pure_error.value)

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    def test_misaligned_length_raises_same_error(self, backend_name):
        transform = GDTransform(order=8, backend=backend_name)
        pure = GDTransform(order=8, backend="pure")
        bad = b"\x00" * (32 * MIN_BATCH_CHUNKS + 1)
        with pytest.raises(ChunkSizeError) as backend_error:
            transform.split_batch_fields(bad)
        with pytest.raises(ChunkSizeError) as pure_error:
            pure.split_batch_fields(bad)
        assert str(backend_error.value) == str(pure_error.value)

    @pytest.mark.parametrize("backend_name", ACCELERATED)
    def test_memoryview_and_bytearray_inputs(self, backend_name):
        transform = GDTransform(order=8, backend=backend_name)
        data = _random_buffer(transform, 48, random.Random(5))
        expected = transform.split_batch_fields(data)
        assert transform.split_batch_fields(bytearray(data)) == expected
        padded = b"\xff" * 32 + data + b"\xff" * 7
        view = memoryview(padded)[32 : 32 + len(data)]
        assert transform.split_batch_fields(view) == expected

    def test_unsupported_order_falls_back_to_pure_loop(self):
        """Orders above 8 are outside every accelerated backend's envelope;
        the dispatch must quietly run the pure loop."""
        for name in AVAILABLE:
            transform = GDTransform(order=9, backend=name)
            data = _random_buffer(transform, MIN_BATCH_CHUNKS + 8, random.Random(7))
            assert transform.split_batch_fields(data) == reference_split_buffer(
                transform, data
            )
