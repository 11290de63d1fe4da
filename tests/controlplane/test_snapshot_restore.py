"""Property tests: snapshot → restore → resume is bit-identical.

Crash recovery is only trustworthy if a restored component is
*indistinguishable* from one that never stopped.  These tests drive the
codec pair and the control plane through seeded random interleavings of
installs, evictions and restarts, cut the run at a random point, round-trip
every snapshot through JSON (the canonical serialisable form), resume in
freshly constructed objects — and require exact equality with the
uninterrupted run: record bytes, decoded chunks, statistics and the final
snapshot itself.

The codec tests run at every Hamming order m in 3..8 and also check the
uninterrupted run itself against the bit-serial reference
(``HammingCode.chunk_to_basis``, called by name).
"""

import json
import random
from functools import partial

import pytest

from repro.controlplane.idpool import IdentifierPool
from repro.controlplane.manager import LEARN_DIGEST, ZipLineControlPlane
from repro.core.decoder import GDDecoder
from repro.core.dictionary import BasisDictionary
from repro.core.encoder import GDEncoder
from repro.core.transform import GDTransform
from repro.exceptions import ReproError
from repro.sim import Simulator
from repro.tofino.digest import DigestEngine

ORDERS = range(3, 9)

#: Dictionary capacity small enough that every run crosses eviction
#: pressure, so recency order is load-bearing across the snapshot cut.
DICT_CAPACITY = 8


def _clustered_chunks(transform, count, rng):
    """Chunks drawn from a small basis pool so the dictionary is exercised."""
    code = transform.code
    chunks = []
    for _ in range(count):
        if rng.random() < 0.8:
            basis = rng.randrange(16)  # 2× the dictionary capacity: churn
            body = code.encode(basis)
            if rng.random() < 0.7:
                body ^= 1 << rng.randrange(code.n)
            value = (rng.getrandbits(transform.prefix_bits) << code.n) | body
        else:
            value = rng.getrandbits(transform.chunk_bits)
        chunks.append(value.to_bytes(transform.chunk_bytes, "big"))
    return chunks


def _pair(transform):
    """A dynamically learning encoder/decoder pair over tiny dictionaries."""
    encoder = GDEncoder(
        transform, BasisDictionary(DICT_CAPACITY), mode="dynamic"
    )
    decoder = GDDecoder(transform, BasisDictionary(DICT_CAPACITY))
    return encoder, decoder


def _json_roundtrip(state):
    """Prove the snapshot is canonically serialisable, then hand it back."""
    first = json.dumps(state, sort_keys=True)
    assert json.dumps(json.loads(first), sort_keys=True) == first
    return json.loads(first)


class TestCodecSnapshotResume:
    @pytest.mark.parametrize("order", ORDERS)
    def test_resume_is_bit_identical_to_uninterrupted_run(self, order):
        transform = GDTransform(order=order)
        rng = random.Random(1000 * order)
        chunks = _clustered_chunks(transform, 120, rng)
        cut = rng.randrange(20, 100)

        # Reference: one pair runs the whole trace uninterrupted, and agrees
        # with the checked HammingCode layer chunk for chunk.
        ref_encoder, ref_decoder = _pair(transform)
        ref_records = [ref_encoder.encode_batch([chunk])[0] for chunk in chunks]
        ref_output = [ref_decoder.decode_batch([record])[0] for record in ref_records]
        code = transform.code
        for chunk, record, restored in zip(chunks, ref_records, ref_output):
            value = int.from_bytes(chunk, "big")
            basis, deviation = code.chunk_to_basis(value & ((1 << code.n) - 1))
            assert (record.prefix, record.deviation) == (value >> code.n, deviation)
            assert getattr(record, "basis", basis) == basis
            assert restored == value

        # Interrupted: encode/decode up to the cut, snapshot both sides
        # through JSON, resume in freshly built objects.
        encoder_a, decoder_a = _pair(transform)
        records = [encoder_a.encode_batch([chunk])[0] for chunk in chunks[:cut]]
        output = [decoder_a.decode_batch([record])[0] for record in records]
        encoder_state = _json_roundtrip(encoder_a.snapshot_state())
        decoder_state = _json_roundtrip(decoder_a.snapshot_state())
        encoder_b, decoder_b = _pair(transform)
        encoder_b.restore_state(encoder_state)
        decoder_b.restore_state(decoder_state)
        records += [encoder_b.encode_batch([chunk])[0] for chunk in chunks[cut:]]
        output += [decoder_b.decode_batch([record])[0] for record in records[cut:]]

        assert [r.to_bytes() for r in records] == [r.to_bytes() for r in ref_records]
        assert output == ref_output
        assert encoder_b.stats == ref_encoder.stats
        assert decoder_b.stats == ref_decoder.stats
        # The resumed pair is indistinguishable going forward too: its
        # final snapshot equals the uninterrupted pair's.
        assert json.dumps(encoder_b.snapshot_state(), sort_keys=True) == json.dumps(
            ref_encoder.snapshot_state(), sort_keys=True
        )
        assert json.dumps(decoder_b.snapshot_state(), sort_keys=True) == json.dumps(
            ref_decoder.snapshot_state(), sort_keys=True
        )

    @pytest.mark.parametrize("order", ORDERS)
    def test_decoder_restart_restores_from_snapshot_mid_trace(self, order):
        # A decoder that loses its dictionary mid-trace and restores from
        # the last snapshot decodes the rest of the stream exactly.
        transform = GDTransform(order=order)
        rng = random.Random(77 + order)
        chunks = _clustered_chunks(transform, 80, rng)
        encoder, decoder = _pair(transform)
        records = [encoder.encode_batch([chunk])[0] for chunk in chunks]
        expected = [int.from_bytes(chunk, "big") for chunk in chunks]

        cut = rng.randrange(20, 60)
        output = [decoder.decode_batch([record])[0] for record in records[:cut]]
        state = _json_roundtrip(decoder.snapshot_state())
        _, restarted = _pair(transform)  # fresh decoder: the restart
        restarted.restore_state(state)
        output += [restarted.decode_batch([record])[0] for record in records[cut:]]

        assert output == expected
        assert restarted.stats.unknown_identifiers == 0


def _build_plane(simulator, identifier_bits=3):
    """A control plane over dict-backed fake switches (mirror checking)."""

    class _EncoderSwitch:
        def __init__(self):
            self.mappings = {}

        def install_basis_mapping(self, basis, identifier, ttl=None):
            self.mappings[basis] = identifier

        def remove_basis_mapping(self, basis):
            self.mappings.pop(basis, None)

        def expired_bases(self, now):
            return []

    class _DecoderSwitch:
        def __init__(self):
            self.mappings = {}

        def install_identifier_mapping(self, identifier, basis):
            self.mappings[identifier] = basis

        def remove_identifier_mapping(self, identifier):
            self.mappings.pop(identifier, None)

    engine = DigestEngine(simulator, delivery_latency=0.9e-3)
    encoder, decoder = _EncoderSwitch(), _DecoderSwitch()
    manager = ZipLineControlPlane(
        digest_engine=engine,
        encoder_switch=encoder,
        decoder_switch=decoder,
        simulator=simulator,
        identifier_bits=identifier_bits,
        seed=0,
    )
    return engine, encoder, decoder, manager


class TestControlPlaneInterleavings:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_install_evict_restart_interleavings_keep_exact_mirrors(
        self, seed
    ):
        # Seeded random schedule of learn digests, eviction storms, decoder
        # restarts (clear + resync) and live snapshot/restore cycles.  The
        # identifier space (2**3) is far smaller than the basis population,
        # so installs race recycling constantly.  Invariant at the end:
        # both switches are exact mirrors of the pool, every in-flight
        # install either landed or was rolled back.
        rng = random.Random(seed)
        simulator = Simulator()
        engine, encoder, decoder, manager = _build_plane(simulator)

        def restart_decoder():
            decoder.mappings.clear()
            manager.resync_decoder()

        def snapshot_cycle():
            manager.restore_state(_json_roundtrip(manager.snapshot_state()))

        time = 0.0
        scheduled_restarts = 0
        for _ in range(60):
            time += rng.uniform(0.1e-3, 0.8e-3)
            op = rng.choice(["digest", "digest", "digest", "evict", "restart", "snapshot"])
            if op == "digest":
                simulator.schedule_at(
                    time,
                    partial(engine.emit, LEARN_DIGEST, {"basis": rng.randrange(40)}),
                )
            elif op == "evict":
                simulator.schedule_at(
                    time, partial(manager.force_evict, rng.randint(1, 3))
                )
            elif op == "restart":
                scheduled_restarts += 1
                simulator.schedule_at(time, restart_decoder)
            else:
                simulator.schedule_at(time, snapshot_cycle)
        simulator.run()

        bindings = manager.pool.bindings()
        assert decoder.mappings == bindings
        assert encoder.mappings == {
            basis: identifier for identifier, basis in bindings.items()
        }
        assert manager.snapshot_state()["pending"] == []
        assert manager.stats.resyncs == scheduled_restarts
        # The churn was real: the pool recycled and the run learned things.
        assert manager.stats.mappings_learned > 0

    def test_restored_manager_resumes_identically(self):
        # Drive two managers with the same digest schedule; snapshot one
        # halfway, restore into a *fresh* manager, finish both — the final
        # snapshots and switch mirrors must be identical.
        bases_first = [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 3]
        bases_second = [10, 11, 2, 12, 5, 13, 1]

        def drive(engine, simulator, bases, start):
            for offset, basis in enumerate(bases):
                simulator.schedule_at(
                    start + offset * 2e-3,
                    partial(engine.emit, LEARN_DIGEST, {"basis": basis}),
                )
            simulator.run()
            return start + len(bases) * 2e-3

        sim_ref = Simulator()
        engine_ref, enc_ref, dec_ref, manager_ref = _build_plane(sim_ref)
        after = drive(engine_ref, sim_ref, bases_first, 0.0)
        drive(engine_ref, sim_ref, bases_second, after)

        sim_a = Simulator()
        engine_a, enc_a, dec_a, manager_a = _build_plane(sim_a)
        after = drive(engine_a, sim_a, bases_first, 0.0)
        state = _json_roundtrip(manager_a.snapshot_state())

        sim_b = Simulator(start_time=after)
        engine_b, enc_b, dec_b, manager_b = _build_plane(sim_b)
        manager_b.restore_state(state)
        # The restarted controller re-primes its switches from the pool.
        for identifier, basis in manager_b.pool.bindings().items():
            dec_b.mappings[identifier] = basis
            enc_b.mappings[basis] = identifier
        drive(engine_b, sim_b, bases_second, after)

        assert json.dumps(manager_b.snapshot_state(), sort_keys=True) == json.dumps(
            manager_ref.snapshot_state(), sort_keys=True
        )
        assert dec_b.mappings == dec_ref.mappings
        assert enc_b.mappings == enc_ref.mappings


# -- hostile snapshots ----------------------------------------------------------
#
# A snapshot is JSON from outside.  Each case breaks one thing in a valid
# snapshot of a capacity-4 map holding a → 0, b → 1 with identifier 2
# released; restoring it must raise a ``ReproError`` subclass — never a
# ``KeyError`` / ``TypeError``, never succeed — and change nothing.


def _valid_state():
    dictionary = BasisDictionary(4)
    for key in "abc":
        dictionary.insert(key)
    dictionary.remove("c")
    return dictionary.snapshot_state()


def _without(key):
    return lambda state: state.pop(key)


def _with(**changes):
    return lambda state: state.update(changes)


#: The pre-change ``IdentifierPool`` format: rejected by name, not read.
_OLD_POOL = {"capacity": 4, "allocations": 1, "recycles": 0}

HOSTILE_SNAPSHOTS = {
    "no-entries": _without("entries"),
    "no-freed-ids": _without("freed_ids"),
    "no-next-unused-id": _without("next_unused_id"),
    "entries-not-a-list": _with(entries=7),
    "entry-not-a-pair": _with(entries=[["a", 0], 5]),
    "entry-too-long": _with(entries=[["a", 0, 0]]),
    "entry-key-unhashable": _with(entries=[[{"__tuple__": [{}]}, 0]]),
    "entry-key-bad-hex": _with(entries=[[{"__bytes__": "zz"}, 0]]),
    "entry-key-unknown-marker": _with(entries=[[{"__set__": []}, 0]]),
    "identifier-out-of-range": _with(entries=[["a", 4]]),
    "identifier-negative": _with(entries=[["a", -1]]),
    "identifier-a-bool": _with(entries=[["a", True]]),
    "identifier-a-float": _with(entries=[["a", 1.0]]),
    "identifier-a-string": _with(entries=[["a", "1"]]),
    "identifier-a-list": _with(entries=[["a", [1]]]),
    "key-twice": _with(entries=[["a", 0], ["a", 1]]),
    "identifier-twice": _with(entries=[["a", 0], ["b", 0]]),
    "freed-out-of-range": _with(freed_ids=[99]),
    "freed-negative": _with(freed_ids=[-1]),
    "freed-twice": _with(freed_ids=[2, 2]),
    "freed-and-mapped": _with(freed_ids=[2, 0]),
    "freed-not-a-list": _with(freed_ids=3),
    "freed-a-string": _with(freed_ids="2"),
    "next-unused-negative": _with(next_unused_id=-7),
    "next-unused-past-capacity": _with(next_unused_id=5),
    "next-unused-a-float": _with(next_unused_id=3.0),
    "next-unused-none": _with(next_unused_id=None),
    "stats-not-a-mapping": _with(stats=[1, 2]),
    "stats-unknown-counter": _with(stats={"hit_ratio": 0.5}),
    "stats-negative": _with(stats={"hits": -1}),
    "stats-a-string": _with(stats={"hits": "many"}),
    "capacity-mismatch": _with(capacity=8),
    "capacity-missing": _without("capacity"),
    "policy-mismatch": _with(policy="fifo"),
    "not-a-mapping": lambda state: [state],
    "old-pool-no-bound": lambda state: dict(_OLD_POOL, free=[1, 2, 3]),
    "old-pool-free-out-of-range": lambda state: dict(_OLD_POOL, free=[99], bound=[]),
    "old-pool-free-and-bound": lambda state: dict(
        _OLD_POOL, free=[0, 1, 2, 3], bound=[[0, "a"]]
    ),
}

HOSTILE_PLANE_SNAPSHOTS = {
    "no-pool": _without("pool"),
    "pool-not-a-mapping": _with(pool=5),
    "pool-old-format": _with(pool=dict(_OLD_POOL, free=[0, 1, 2, 3], bound=[[0, "a"]])),
    "pending-not-a-list": _with(pending="12"),
    "pending-a-number": _with(pending=3),
    "pending-unhashable": _with(pending=[{"__tuple__": [{}]}]),
    "pending-bad-marker": _with(pending=[{"__set__": []}]),
    "not-a-mapping": lambda state: [state],
}


def _broken(state, mutate):
    state = json.loads(json.dumps(state))
    replacement = mutate(state)
    return state if replacement is None else replacement


class TestHostileSnapshots:
    @pytest.mark.parametrize("case", HOSTILE_SNAPSHOTS)
    @pytest.mark.parametrize("kind", [BasisDictionary, IdentifierPool])
    def test_a_malformed_map_snapshot_is_a_named_error(self, kind, case):
        target = kind(4)
        target.insert("kept")
        before = target.snapshot_state()
        with pytest.raises(ReproError):
            target.restore_state(_broken(_valid_state(), HOSTILE_SNAPSHOTS[case]))
        assert target.snapshot_state() == before
        assert target.insert("next") == (1, None)

    @pytest.mark.parametrize("case", HOSTILE_PLANE_SNAPSHOTS)
    def test_a_malformed_control_plane_snapshot_is_a_named_error(self, case):
        simulator = Simulator()
        engine, _encoder, _decoder, manager = _build_plane(simulator, identifier_bits=2)
        engine.emit(LEARN_DIGEST, {"basis": 1})
        simulator.run()
        engine.emit(LEARN_DIGEST, {"basis": 2})
        simulator.run(until=simulator.now + 1e-3)  # the digest has arrived, the installs have not
        before = manager.snapshot_state()
        assert before["pending"] == [2]
        with pytest.raises(ReproError):
            manager.restore_state(_broken(before, HOSTILE_PLANE_SNAPSHOTS[case]))
        assert manager.snapshot_state() == before

    def test_the_unbroken_snapshots_restore(self):
        for kind in (BasisDictionary, IdentifierPool):
            target = kind(4)
            target.restore_state(_broken(_valid_state(), lambda state: None))
            assert target.snapshot_state() == _valid_state()
            # a, b mapped; 3 never used; 2 released: that order.
            assert [target.insert(key)[0] for key in "xy"] == [3, 2]

    def test_two_bases_never_share_an_identifier_after_a_restore(self):
        # The parent read ``free: [0, 1, 2, 3]`` next to ``bound: [[0, "a"]]``
        # and then handed identifier 0 to a second basis.
        pool = IdentifierPool(4)
        pool.allocate("a")
        with pytest.raises(ReproError, match="free"):
            pool.restore_state(
                dict(_OLD_POOL, free=[0, 1, 2, 3], bound=[[0, "a"]])
            )
        assert pool.allocate("z").identifier == 1
        assert pool.bindings() == {0: "a", 1: "z"}
