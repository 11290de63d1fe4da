"""Golden bytes of the GD record pipeline.

For every combination of Hamming order 3–8, prefix width {0, 1, 9}, mode
{dynamic, static, no_table}, learning delay {0, 3} and eviction policy
{lru, fifo, seeded random} — over a dictionary of four identifiers, small
enough that the twelve bases of the input evict all trace long (static
cases: sixteen, see :func:`test_static_mode_with_a_full_table_round_trips`)
— two md5s are pinned: the joined ``GDStreamCompressor.compress_stream``
output and the canonical JSON of the encoder and decoder
``snapshot_state()`` after a round trip; the
``GDCodec.compress_to_container`` blob must equal that stream byte for
byte (one GDZ1 writer serves both).  Every codec backend must reproduce
the same pins.  A refactor of the pipeline
behind these entry points leaves every value untouched; a change to the
format or the dictionary policy moves them, and then the new values are
recorded on purpose, in their own commit
(``python tests/core/test_pipeline_golden.py`` prints the table).
"""

import hashlib
import itertools
import json
import random

import pytest

from repro.core.backends import available_backend_names
from repro.core.codec import GDCodec
from repro.core.engine import GDStreamCompressor
from repro.core.hamming import HammingCode

ORDERS = (3, 4, 5, 6, 7, 8)
PREFIX_BITS = (0, 1, 9)
MODES = ("dynamic", "static", "no_table")
DELAYS = (0, 3)
EVICTIONS = ("lru", "fifo", "random")

IDENTIFIER_BITS = 2
#: Static tables hold four bases too, in a dictionary with room for all
#: twelve.  The width is part of the pinned container header; the full-table
#: case is :func:`test_static_mode_with_a_full_table_round_trips`.
STATIC_IDENTIFIER_BITS = 4
DISTINCT_BASES = 12
CHUNKS = 160
EVICTION_SEED = 77
#: Stream input block size: never a multiple of a chunk size above one byte.
BLOCK_BYTES = 1333

CASES = [
    f"o{order}-p{prefix}-{mode}-d{delay}-{eviction}"
    for order, prefix, mode, delay, eviction in itertools.product(
        ORDERS, PREFIX_BITS, MODES, DELAYS, EVICTIONS
    )
]


def _parse(case):
    order, prefix, mode, delay, eviction = case.split("-")
    return int(order[1:]), int(prefix[1:]), mode, int(delay[1:]), eviction


def _input(order, prefix_bits):
    """Bursty chunks over twelve bases, and the static table (four of them)."""
    code = HammingCode(order)
    chunk_bits = code.n + prefix_bits
    chunk_bytes = (chunk_bits + 7) // 8
    rng = random.Random(1000 * order + prefix_bits)
    bases = []
    while len(bases) < DISTINCT_BASES:
        candidate = rng.getrandbits(code.k)
        if candidate not in bases:
            bases.append(candidate)
    chunks = []
    basis = bases[0]
    for _ in range(CHUNKS):
        if rng.random() < 0.4:
            basis = rng.choice(bases)
        body = code.encode(basis)
        position = rng.randrange(code.n + 1)
        if position < code.n:
            body ^= 1 << position
        value = (rng.getrandbits(prefix_bits) << code.n) | body
        chunks.append(value.to_bytes(chunk_bytes, "big"))
    data = b"".join(chunks)
    if chunk_bytes > 1:
        data = data[:-1]  # ragged tail: exercises the zero padding
    return chunk_bits, data, bases[: 1 << IDENTIFIER_BITS]


def _md5(data):
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, default=str).encode("utf-8")
    return hashlib.md5(data).hexdigest()


def compute(case, backend):
    """``(stream md5, state md5)`` of one case."""
    order, prefix_bits, mode, delay, eviction = _parse(case)
    chunk_bits, data, static_bases = _input(order, prefix_bits)
    kwargs = dict(
        order=order,
        chunk_bits=chunk_bits,
        identifier_bits=(
            STATIC_IDENTIFIER_BITS if mode == "static" else IDENTIFIER_BITS
        ),
        mode=mode,
        eviction_policy=eviction,
        learning_delay_chunks=delay,
        eviction_seed=EVICTION_SEED,
        static_bases=static_bases if mode == "static" else None,
        backend=backend,
    )
    codec = GDCodec(**kwargs)
    container = codec.compress_to_container(data)
    assert codec.clone().decompress_container(container) == data

    # The same compression on the codec itself, so its state can be read.
    result = codec.compress(data, pad=True)
    assert codec.to_container(result) == container
    assert codec.decompress_records(result.records, len(data)) == data
    state = {
        "encoder": codec.encoder.snapshot_state(),
        "decoder": codec.decoder.snapshot_state(),
    }

    blocks = [
        data[offset : offset + BLOCK_BYTES]
        for offset in range(0, len(data), BLOCK_BYTES)
    ]
    stream = b"".join(GDStreamCompressor(**kwargs).compress_stream(blocks))
    assert b"".join(GDStreamCompressor(**kwargs).decompress_stream([stream])) == data
    assert container == stream
    return _md5(stream), _md5(state)


@pytest.mark.parametrize("backend", available_backend_names())
@pytest.mark.parametrize("case", CASES)
def test_pipeline_golden(case, backend):
    assert compute(case, backend) == PINS[case]


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(CASES)


def test_static_mode_with_a_full_table_round_trips():
    """Regression: a static decoder must not learn from type-2 records.

    It used to, and with a full table evicted preloaded entries the static
    encoder (which never inserts) still referenced: wrong bytes, no error.
    """
    chunk_bits, data, static_bases = _input(8, 1)
    codec = GDCodec(
        chunk_bits=chunk_bits,
        identifier_bits=IDENTIFIER_BITS,
        mode="static",
        static_bases=static_bases,
    )
    assert codec.roundtrip(data) == data


#: case -> (stream md5, state md5).
PINS = {
    'o3-p0-dynamic-d0-lru': ('a76b30df8e0d94eaca6c749e17ca85ef', '4cb6766e3fa5cd884a8b8ebae4cd1dc1'),
    'o3-p0-dynamic-d0-fifo': ('3f2bef4997614c1d4c5e00bb19e77b13', 'cd265b023c866beb951138d952efcb37'),
    'o3-p0-dynamic-d0-random': ('547f428341275223c3e21dea8ad3a438', '82aa265b2857c4d9ca5fd5f7a28b20b9'),
    'o3-p0-dynamic-d3-lru': ('0c9e2e0a1b8b367f6f4558e538316c07', '94a8bcfbee0ca9da556e53c690e41ac4'),
    'o3-p0-dynamic-d3-fifo': ('f8549237a306394ff37f176b449de628', '43ceb5d647d122116999b5ab644e7170'),
    'o3-p0-dynamic-d3-random': ('c5c63ccfcfe06414502d1522670b7290', 'f4638fc93ad46f98bf9fcdb0a1d61160'),
    'o3-p0-static-d0-lru': ('f7afa7298aa1c18ff4535f8b41548f72', '376c1f0e07bb9ffee9ef57762ca43f14'),
    'o3-p0-static-d0-fifo': ('f7afa7298aa1c18ff4535f8b41548f72', '5a7a7f8300f04c072e49ce8def4351d3'),
    'o3-p0-static-d0-random': ('f7afa7298aa1c18ff4535f8b41548f72', 'c57d8f3b94665ec1e4e89a14881c7bb7'),
    'o3-p0-static-d3-lru': ('f7afa7298aa1c18ff4535f8b41548f72', '376c1f0e07bb9ffee9ef57762ca43f14'),
    'o3-p0-static-d3-fifo': ('f7afa7298aa1c18ff4535f8b41548f72', '5a7a7f8300f04c072e49ce8def4351d3'),
    'o3-p0-static-d3-random': ('f7afa7298aa1c18ff4535f8b41548f72', 'c57d8f3b94665ec1e4e89a14881c7bb7'),
    'o3-p0-no_table-d0-lru': ('944a496374f1195df498089c398779ba', '591423792b65e529dcdb14f323e003f0'),
    'o3-p0-no_table-d0-fifo': ('944a496374f1195df498089c398779ba', '591423792b65e529dcdb14f323e003f0'),
    'o3-p0-no_table-d0-random': ('944a496374f1195df498089c398779ba', '591423792b65e529dcdb14f323e003f0'),
    'o3-p0-no_table-d3-lru': ('944a496374f1195df498089c398779ba', '591423792b65e529dcdb14f323e003f0'),
    'o3-p0-no_table-d3-fifo': ('944a496374f1195df498089c398779ba', '591423792b65e529dcdb14f323e003f0'),
    'o3-p0-no_table-d3-random': ('944a496374f1195df498089c398779ba', '591423792b65e529dcdb14f323e003f0'),
    'o3-p1-dynamic-d0-lru': ('7a01f43b9ef2f82062fdbb2b5c72de37', '4c982171f417da44c9e5c7b4f1aed776'),
    'o3-p1-dynamic-d0-fifo': ('254deb586087afb5c92f5f099e8d556e', '42c816772ae6a32af174a9608586c785'),
    'o3-p1-dynamic-d0-random': ('219c60c9fffbfebf9cd93d214d6f410a', '5fe21f92e8b815e085dba01fdb719b08'),
    'o3-p1-dynamic-d3-lru': ('11e4f1024f5f470ac90fb1f1723190ee', '0410497a37cd2b06ca9a5769d995a879'),
    'o3-p1-dynamic-d3-fifo': ('e13aba1698664d609dfa667bfd47dd86', 'f6f1db018d687adbd29f65a44622a4f7'),
    'o3-p1-dynamic-d3-random': ('f729288da70a69622fa639ef6ba6fc83', 'fa5c37a8c8ca391313366cb637816df6'),
    'o3-p1-static-d0-lru': ('be4007953a542d366746f5567ee8e70d', '3ca98f063b78ad2792b971e6dfdab6bf'),
    'o3-p1-static-d0-fifo': ('be4007953a542d366746f5567ee8e70d', '11df6d3f4ba24a5c1d94b9558826adea'),
    'o3-p1-static-d0-random': ('be4007953a542d366746f5567ee8e70d', 'e664d4045cfcfe540412c3db5ba2ffa3'),
    'o3-p1-static-d3-lru': ('be4007953a542d366746f5567ee8e70d', '3ca98f063b78ad2792b971e6dfdab6bf'),
    'o3-p1-static-d3-fifo': ('be4007953a542d366746f5567ee8e70d', '11df6d3f4ba24a5c1d94b9558826adea'),
    'o3-p1-static-d3-random': ('be4007953a542d366746f5567ee8e70d', 'e664d4045cfcfe540412c3db5ba2ffa3'),
    'o3-p1-no_table-d0-lru': ('203a424440c5338821e66c386600edbe', 'b404f581a1afdf3357feac9d813f3e21'),
    'o3-p1-no_table-d0-fifo': ('203a424440c5338821e66c386600edbe', 'b404f581a1afdf3357feac9d813f3e21'),
    'o3-p1-no_table-d0-random': ('203a424440c5338821e66c386600edbe', 'b404f581a1afdf3357feac9d813f3e21'),
    'o3-p1-no_table-d3-lru': ('203a424440c5338821e66c386600edbe', 'b404f581a1afdf3357feac9d813f3e21'),
    'o3-p1-no_table-d3-fifo': ('203a424440c5338821e66c386600edbe', 'b404f581a1afdf3357feac9d813f3e21'),
    'o3-p1-no_table-d3-random': ('203a424440c5338821e66c386600edbe', 'b404f581a1afdf3357feac9d813f3e21'),
    'o3-p9-dynamic-d0-lru': ('69127c1d7b3bd9db7f8f883cf712921c', 'bf3b0ab8c2697755cabf00c755e66d5e'),
    'o3-p9-dynamic-d0-fifo': ('6338960aeac7867a63ef601a7a8e6695', 'a6bc1a7372d38f86c3bd8ccb444fe7b3'),
    'o3-p9-dynamic-d0-random': ('e81dd5683e4c48f7029c0d8ef4f61f4f', 'd560211cbd53c0700a4e4473ee57a3ce'),
    'o3-p9-dynamic-d3-lru': ('2f1b90edc6a920634cb762f0db3c0570', '1581e074b82ebc8665cfd52f25d5d6a4'),
    'o3-p9-dynamic-d3-fifo': ('ff5e8efcd818e94c9df16e4299ecf31e', 'a78d80e27d6166085cbd01881ede8ee3'),
    'o3-p9-dynamic-d3-random': ('1e22efdd6b7d5941232b24084da56053', 'e03c41ee380f7c5652e8c8dbda364cb2'),
    'o3-p9-static-d0-lru': ('4f7606caa9e56122bfd43de63461e6b7', '7f9f6e956105b7258f282ff4f7a74429'),
    'o3-p9-static-d0-fifo': ('4f7606caa9e56122bfd43de63461e6b7', '15692b6f2c42710973f49d7e2431c150'),
    'o3-p9-static-d0-random': ('4f7606caa9e56122bfd43de63461e6b7', 'bd7cc1dd663e0a98d9b3f204481ae2e5'),
    'o3-p9-static-d3-lru': ('4f7606caa9e56122bfd43de63461e6b7', '7f9f6e956105b7258f282ff4f7a74429'),
    'o3-p9-static-d3-fifo': ('4f7606caa9e56122bfd43de63461e6b7', '15692b6f2c42710973f49d7e2431c150'),
    'o3-p9-static-d3-random': ('4f7606caa9e56122bfd43de63461e6b7', 'bd7cc1dd663e0a98d9b3f204481ae2e5'),
    'o3-p9-no_table-d0-lru': ('6d4f20d492f5572f7f4fc5b1bbd13792', '172248a897e4dd6fdb524780d7596a00'),
    'o3-p9-no_table-d0-fifo': ('6d4f20d492f5572f7f4fc5b1bbd13792', '172248a897e4dd6fdb524780d7596a00'),
    'o3-p9-no_table-d0-random': ('6d4f20d492f5572f7f4fc5b1bbd13792', '172248a897e4dd6fdb524780d7596a00'),
    'o3-p9-no_table-d3-lru': ('6d4f20d492f5572f7f4fc5b1bbd13792', '172248a897e4dd6fdb524780d7596a00'),
    'o3-p9-no_table-d3-fifo': ('6d4f20d492f5572f7f4fc5b1bbd13792', '172248a897e4dd6fdb524780d7596a00'),
    'o3-p9-no_table-d3-random': ('6d4f20d492f5572f7f4fc5b1bbd13792', '172248a897e4dd6fdb524780d7596a00'),
    'o4-p0-dynamic-d0-lru': ('12cfdb83c2dde7d8d1612ec03a12b613', '08f6e5196e44ce4c902acc9fff1f8afa'),
    'o4-p0-dynamic-d0-fifo': ('33eb8320350098422a859fadeb53c96b', '693b30e641d5fb6e87b9cce5f1e7a75a'),
    'o4-p0-dynamic-d0-random': ('724865fb369930fd1f1c3f52924090bf', '90dcad88e307cd7b2bc42e4be2389673'),
    'o4-p0-dynamic-d3-lru': ('3dff7034421cd2dedff16174336093c3', 'd54e8ad6a90a682a4c99e6d03a3180ff'),
    'o4-p0-dynamic-d3-fifo': ('af6677e46edcbef92323e84c0f089e7c', 'b0e977ec287edd9c220abdb4496eb2c2'),
    'o4-p0-dynamic-d3-random': ('c004e25298d1eb486bfb1b7ab80ae1dc', 'cc51f49f8d5a1e610e267e81e2e49a8e'),
    'o4-p0-static-d0-lru': ('89f9c665c6d01d603a31fad65b6b5cb6', '5124ae3a7863e769603bb0bfb1c30951'),
    'o4-p0-static-d0-fifo': ('89f9c665c6d01d603a31fad65b6b5cb6', '76f133b978b8275a42938758fd7d288d'),
    'o4-p0-static-d0-random': ('89f9c665c6d01d603a31fad65b6b5cb6', '57d5e618fcb9664f565338ed0d872121'),
    'o4-p0-static-d3-lru': ('89f9c665c6d01d603a31fad65b6b5cb6', '5124ae3a7863e769603bb0bfb1c30951'),
    'o4-p0-static-d3-fifo': ('89f9c665c6d01d603a31fad65b6b5cb6', '76f133b978b8275a42938758fd7d288d'),
    'o4-p0-static-d3-random': ('89f9c665c6d01d603a31fad65b6b5cb6', '57d5e618fcb9664f565338ed0d872121'),
    'o4-p0-no_table-d0-lru': ('df4e5cf3564e78d7fe10f0bdeab2741f', '25152455a711f22c961d6767cc200ce9'),
    'o4-p0-no_table-d0-fifo': ('df4e5cf3564e78d7fe10f0bdeab2741f', '25152455a711f22c961d6767cc200ce9'),
    'o4-p0-no_table-d0-random': ('df4e5cf3564e78d7fe10f0bdeab2741f', '25152455a711f22c961d6767cc200ce9'),
    'o4-p0-no_table-d3-lru': ('df4e5cf3564e78d7fe10f0bdeab2741f', '25152455a711f22c961d6767cc200ce9'),
    'o4-p0-no_table-d3-fifo': ('df4e5cf3564e78d7fe10f0bdeab2741f', '25152455a711f22c961d6767cc200ce9'),
    'o4-p0-no_table-d3-random': ('df4e5cf3564e78d7fe10f0bdeab2741f', '25152455a711f22c961d6767cc200ce9'),
    'o4-p1-dynamic-d0-lru': ('7d03d6c2266ed5d09c32e69d56b8fbb9', 'b60aa1bac5b809c7e386d04816d7c3aa'),
    'o4-p1-dynamic-d0-fifo': ('c645d4a3edf47a68d443525ed94f19bc', '0ccb03219703290f449b9f13e122828d'),
    'o4-p1-dynamic-d0-random': ('70f6689cafb578058d2994e3202c97d5', 'aa0da745c6aa3e85bc5e455084604212'),
    'o4-p1-dynamic-d3-lru': ('702d0e3d8d93094dc3a8644b86fe0d49', 'f7a70dbc4826a0940d0c35abe9b59be6'),
    'o4-p1-dynamic-d3-fifo': ('552b2082d9f1642c09201bc7b5ab1bc7', 'ca3d60790e6a1dca1d21a8caf82cebea'),
    'o4-p1-dynamic-d3-random': ('680f631c38c41dd3b4eff50ffd35e2a8', '2f1f3aad70eb82ca61c7c6e87c08553d'),
    'o4-p1-static-d0-lru': ('f7987bd818ced5589bb7af2cf58acffd', 'b5d8a405700804369ad7ed283f879095'),
    'o4-p1-static-d0-fifo': ('f7987bd818ced5589bb7af2cf58acffd', '0de1579869a313c53ad64a1967a95041'),
    'o4-p1-static-d0-random': ('f7987bd818ced5589bb7af2cf58acffd', '645efb4f858a9f4302980e040e028a0a'),
    'o4-p1-static-d3-lru': ('f7987bd818ced5589bb7af2cf58acffd', 'b5d8a405700804369ad7ed283f879095'),
    'o4-p1-static-d3-fifo': ('f7987bd818ced5589bb7af2cf58acffd', '0de1579869a313c53ad64a1967a95041'),
    'o4-p1-static-d3-random': ('f7987bd818ced5589bb7af2cf58acffd', '645efb4f858a9f4302980e040e028a0a'),
    'o4-p1-no_table-d0-lru': ('4582a9c63ff7a5b45ab24e5192d58857', '172248a897e4dd6fdb524780d7596a00'),
    'o4-p1-no_table-d0-fifo': ('4582a9c63ff7a5b45ab24e5192d58857', '172248a897e4dd6fdb524780d7596a00'),
    'o4-p1-no_table-d0-random': ('4582a9c63ff7a5b45ab24e5192d58857', '172248a897e4dd6fdb524780d7596a00'),
    'o4-p1-no_table-d3-lru': ('4582a9c63ff7a5b45ab24e5192d58857', '172248a897e4dd6fdb524780d7596a00'),
    'o4-p1-no_table-d3-fifo': ('4582a9c63ff7a5b45ab24e5192d58857', '172248a897e4dd6fdb524780d7596a00'),
    'o4-p1-no_table-d3-random': ('4582a9c63ff7a5b45ab24e5192d58857', '172248a897e4dd6fdb524780d7596a00'),
    'o4-p9-dynamic-d0-lru': ('898425eb8ee37307a0203148fb323473', '8ab9fdf642a695c6c3ec60043ffb4e2f'),
    'o4-p9-dynamic-d0-fifo': ('ff3175e371a4b001c96f347a30e96aa8', '735b318aee768d5d0c6335ad993a50d9'),
    'o4-p9-dynamic-d0-random': ('e21b6ae8d967f0a4341859e6ec30ff9e', 'e39f03c371a4bd9c7cc7d5d46d6c4624'),
    'o4-p9-dynamic-d3-lru': ('bdef51887a9147432450ac4c99f3e4ee', '746068c07785ba473427abfbb009779e'),
    'o4-p9-dynamic-d3-fifo': ('0355e3681b67d531b588fb6229c81801', '4ae5f2faecdeb5dff7b67591ccee1159'),
    'o4-p9-dynamic-d3-random': ('43d422896aadbb555f7fad54ab4dcb4d', '22a471bad34dc3dd8e7ac183ccb49de4'),
    'o4-p9-static-d0-lru': ('a2adc55f957a8db61008c90e12e1e3b8', '1551d4dae32802003a8ee51d462e66bd'),
    'o4-p9-static-d0-fifo': ('a2adc55f957a8db61008c90e12e1e3b8', '9d12c2b661a2b62ef351230695952d3d'),
    'o4-p9-static-d0-random': ('a2adc55f957a8db61008c90e12e1e3b8', 'aab17965266dfa41fa2b75a84408da7e'),
    'o4-p9-static-d3-lru': ('a2adc55f957a8db61008c90e12e1e3b8', '1551d4dae32802003a8ee51d462e66bd'),
    'o4-p9-static-d3-fifo': ('a2adc55f957a8db61008c90e12e1e3b8', '9d12c2b661a2b62ef351230695952d3d'),
    'o4-p9-static-d3-random': ('a2adc55f957a8db61008c90e12e1e3b8', 'aab17965266dfa41fa2b75a84408da7e'),
    'o4-p9-no_table-d0-lru': ('a4d898c93e1bf52058c98b8ea9a4d813', '3a61bbc449d5e57433dce71bddd87603'),
    'o4-p9-no_table-d0-fifo': ('a4d898c93e1bf52058c98b8ea9a4d813', '3a61bbc449d5e57433dce71bddd87603'),
    'o4-p9-no_table-d0-random': ('a4d898c93e1bf52058c98b8ea9a4d813', '3a61bbc449d5e57433dce71bddd87603'),
    'o4-p9-no_table-d3-lru': ('a4d898c93e1bf52058c98b8ea9a4d813', '3a61bbc449d5e57433dce71bddd87603'),
    'o4-p9-no_table-d3-fifo': ('a4d898c93e1bf52058c98b8ea9a4d813', '3a61bbc449d5e57433dce71bddd87603'),
    'o4-p9-no_table-d3-random': ('a4d898c93e1bf52058c98b8ea9a4d813', '3a61bbc449d5e57433dce71bddd87603'),
    'o5-p0-dynamic-d0-lru': ('919ad7e7c5ee46e07a44b947c1d01559', '033392ab54ced531ce3531dace4469c8'),
    'o5-p0-dynamic-d0-fifo': ('c09bff7fdc7ee15f3cd847d16e599465', '7f2a1eb6d1a3939151979ae502afcdb8'),
    'o5-p0-dynamic-d0-random': ('a6765ef69dec79bee2e791bb8ec57fdc', '47deca5e9b3c90ae240500b47a40d696'),
    'o5-p0-dynamic-d3-lru': ('7c8026e4e17e7ffe4a0b01eb735fb7ce', '11fb92166638484aaef8e71979c29a44'),
    'o5-p0-dynamic-d3-fifo': ('a02f78952716f617fead8220faf6e8a0', '96e4f386800119870863b319eeac58e4'),
    'o5-p0-dynamic-d3-random': ('999b7ec4749dde21409fc3d678ea64cb', '41dff76e6d50b304e5b2f18745d32467'),
    'o5-p0-static-d0-lru': ('31ba8b7b15895cbd2d37b5a6aa595ebd', '696a833f489c1a04498e08ed18c9f8be'),
    'o5-p0-static-d0-fifo': ('31ba8b7b15895cbd2d37b5a6aa595ebd', 'e363fc04d2299aca71043df90448f060'),
    'o5-p0-static-d0-random': ('31ba8b7b15895cbd2d37b5a6aa595ebd', '84a3c211b167e817fc1476a2bae22aa4'),
    'o5-p0-static-d3-lru': ('31ba8b7b15895cbd2d37b5a6aa595ebd', '696a833f489c1a04498e08ed18c9f8be'),
    'o5-p0-static-d3-fifo': ('31ba8b7b15895cbd2d37b5a6aa595ebd', 'e363fc04d2299aca71043df90448f060'),
    'o5-p0-static-d3-random': ('31ba8b7b15895cbd2d37b5a6aa595ebd', '84a3c211b167e817fc1476a2bae22aa4'),
    'o5-p0-no_table-d0-lru': ('24b7dd2eb3b022c84aab897a27d94ce1', 'e418dd0f74363ad43a9a135bcdf47af9'),
    'o5-p0-no_table-d0-fifo': ('24b7dd2eb3b022c84aab897a27d94ce1', 'e418dd0f74363ad43a9a135bcdf47af9'),
    'o5-p0-no_table-d0-random': ('24b7dd2eb3b022c84aab897a27d94ce1', 'e418dd0f74363ad43a9a135bcdf47af9'),
    'o5-p0-no_table-d3-lru': ('24b7dd2eb3b022c84aab897a27d94ce1', 'e418dd0f74363ad43a9a135bcdf47af9'),
    'o5-p0-no_table-d3-fifo': ('24b7dd2eb3b022c84aab897a27d94ce1', 'e418dd0f74363ad43a9a135bcdf47af9'),
    'o5-p0-no_table-d3-random': ('24b7dd2eb3b022c84aab897a27d94ce1', 'e418dd0f74363ad43a9a135bcdf47af9'),
    'o5-p1-dynamic-d0-lru': ('05c6f92b4616625ceb1b2c507cef995f', '9433a0fb11a863c7906228234785c218'),
    'o5-p1-dynamic-d0-fifo': ('deb9bd232edb5526eac580c96cc7ddb5', 'b64e2a07d2466f1cb780db4bb9c29c48'),
    'o5-p1-dynamic-d0-random': ('34e0392b922bc9ac308594046fc3a4a6', 'e544bbbe7b04ff513d9a2480ebf7bb00'),
    'o5-p1-dynamic-d3-lru': ('a5a0e4f788c8e99258ed24423975b44a', 'a8013bb08bf25d564783de2aeda8a002'),
    'o5-p1-dynamic-d3-fifo': ('3f979a9c1b69a3c6211cf22dc042bf7e', 'f73bb06cd52689c8f8c5e683d823246e'),
    'o5-p1-dynamic-d3-random': ('12257d479fa7c91d3d52e7f99c162dfc', 'b7a500e1e0282fa476b7ff0468cbb2e4'),
    'o5-p1-static-d0-lru': ('43d9308fc2df9566b69a073f312c886d', '58e97f3a2ba72b50c233dcc70dafc1d2'),
    'o5-p1-static-d0-fifo': ('43d9308fc2df9566b69a073f312c886d', '686037d5c706940b2fe3667e0183f817'),
    'o5-p1-static-d0-random': ('43d9308fc2df9566b69a073f312c886d', 'b1899e420b575d7ed589d4c932b26fd9'),
    'o5-p1-static-d3-lru': ('43d9308fc2df9566b69a073f312c886d', '58e97f3a2ba72b50c233dcc70dafc1d2'),
    'o5-p1-static-d3-fifo': ('43d9308fc2df9566b69a073f312c886d', '686037d5c706940b2fe3667e0183f817'),
    'o5-p1-static-d3-random': ('43d9308fc2df9566b69a073f312c886d', 'b1899e420b575d7ed589d4c932b26fd9'),
    'o5-p1-no_table-d0-lru': ('a887ee89da52e8f4bd527c6561afe627', '5f807dfd56d992f167786f5381a50fa5'),
    'o5-p1-no_table-d0-fifo': ('a887ee89da52e8f4bd527c6561afe627', '5f807dfd56d992f167786f5381a50fa5'),
    'o5-p1-no_table-d0-random': ('a887ee89da52e8f4bd527c6561afe627', '5f807dfd56d992f167786f5381a50fa5'),
    'o5-p1-no_table-d3-lru': ('a887ee89da52e8f4bd527c6561afe627', '5f807dfd56d992f167786f5381a50fa5'),
    'o5-p1-no_table-d3-fifo': ('a887ee89da52e8f4bd527c6561afe627', '5f807dfd56d992f167786f5381a50fa5'),
    'o5-p1-no_table-d3-random': ('a887ee89da52e8f4bd527c6561afe627', '5f807dfd56d992f167786f5381a50fa5'),
    'o5-p9-dynamic-d0-lru': ('447767cf2d49d1683d5f24ccd178f7e4', '71fd9ec5abf7176621a5aeed93801134'),
    'o5-p9-dynamic-d0-fifo': ('19fd85c9007468a38e158b4b5b522bda', '2e1af5e3150eca0d676728073f8fa0f5'),
    'o5-p9-dynamic-d0-random': ('dc4744842ae01f3376792439a887ca48', 'cc08bbf92c23065ed8578f234f68b217'),
    'o5-p9-dynamic-d3-lru': ('64f1193027f0144584040dca22f7bda8', '14f2f64ec80e5741b40ae823535b6c81'),
    'o5-p9-dynamic-d3-fifo': ('77fa74995945c7017bd337535c2b6bb1', '5e92eac052a820567010dbfec0642e10'),
    'o5-p9-dynamic-d3-random': ('de2168d8f1545cd4d6f8ba8ff514e512', 'b9adcafa639057a614e83c350190c0de'),
    'o5-p9-static-d0-lru': ('7ebd7f57af9dceef03a7cc47647f8680', '427f1eb5442b5ce4b0271fe945e83ba6'),
    'o5-p9-static-d0-fifo': ('7ebd7f57af9dceef03a7cc47647f8680', '142375da2513a3cb6a06704f312cdd5a'),
    'o5-p9-static-d0-random': ('7ebd7f57af9dceef03a7cc47647f8680', '1791b2b8d5416f9a3707258d0569a7c9'),
    'o5-p9-static-d3-lru': ('7ebd7f57af9dceef03a7cc47647f8680', '427f1eb5442b5ce4b0271fe945e83ba6'),
    'o5-p9-static-d3-fifo': ('7ebd7f57af9dceef03a7cc47647f8680', '142375da2513a3cb6a06704f312cdd5a'),
    'o5-p9-static-d3-random': ('7ebd7f57af9dceef03a7cc47647f8680', '1791b2b8d5416f9a3707258d0569a7c9'),
    'o5-p9-no_table-d0-lru': ('fc2da9a9507d72921720322e50acbb38', 'd15463bc7cbcaa889cd5c2e4d6110950'),
    'o5-p9-no_table-d0-fifo': ('fc2da9a9507d72921720322e50acbb38', 'd15463bc7cbcaa889cd5c2e4d6110950'),
    'o5-p9-no_table-d0-random': ('fc2da9a9507d72921720322e50acbb38', 'd15463bc7cbcaa889cd5c2e4d6110950'),
    'o5-p9-no_table-d3-lru': ('fc2da9a9507d72921720322e50acbb38', 'd15463bc7cbcaa889cd5c2e4d6110950'),
    'o5-p9-no_table-d3-fifo': ('fc2da9a9507d72921720322e50acbb38', 'd15463bc7cbcaa889cd5c2e4d6110950'),
    'o5-p9-no_table-d3-random': ('fc2da9a9507d72921720322e50acbb38', 'd15463bc7cbcaa889cd5c2e4d6110950'),
    'o6-p0-dynamic-d0-lru': ('36cfc2c9ec55327d3c25b7fe5cc58982', 'c33088bc56d78fcce62f83b727c64e34'),
    'o6-p0-dynamic-d0-fifo': ('c546db7f06aeff6af8e8a548a9829032', '703a7d0d1ddf0c411b93aa8a2199673e'),
    'o6-p0-dynamic-d0-random': ('6470bb00b87efa879359bfd0f00aeabe', 'b75205822d62b016782fe8961e70ee14'),
    'o6-p0-dynamic-d3-lru': ('ae148e00cacbf028188c7e648daf4a27', '6928b1084c0f1ecec68b5717e84047a1'),
    'o6-p0-dynamic-d3-fifo': ('5322f8a731a52d59e86649264c506039', 'd1ad0971d75cbbce8e6f064603829b4e'),
    'o6-p0-dynamic-d3-random': ('9482b10b453fcb2d685f954642308148', '8b68e80a5e86a955377732c795036d42'),
    'o6-p0-static-d0-lru': ('fc28f577cf6133b6916affe27dd02f34', '43210c905f68c6041ff1bd8a416541de'),
    'o6-p0-static-d0-fifo': ('fc28f577cf6133b6916affe27dd02f34', 'c2a5d47edd161ea49041739443ab4918'),
    'o6-p0-static-d0-random': ('fc28f577cf6133b6916affe27dd02f34', '6f341e47e506ee397ee178ed248f4bd4'),
    'o6-p0-static-d3-lru': ('fc28f577cf6133b6916affe27dd02f34', '43210c905f68c6041ff1bd8a416541de'),
    'o6-p0-static-d3-fifo': ('fc28f577cf6133b6916affe27dd02f34', 'c2a5d47edd161ea49041739443ab4918'),
    'o6-p0-static-d3-random': ('fc28f577cf6133b6916affe27dd02f34', '6f341e47e506ee397ee178ed248f4bd4'),
    'o6-p0-no_table-d0-lru': ('64d707471de2df4e3ee12bc21c40332a', 'c4f96e6ff883987dfca680e8745946a4'),
    'o6-p0-no_table-d0-fifo': ('64d707471de2df4e3ee12bc21c40332a', 'c4f96e6ff883987dfca680e8745946a4'),
    'o6-p0-no_table-d0-random': ('64d707471de2df4e3ee12bc21c40332a', 'c4f96e6ff883987dfca680e8745946a4'),
    'o6-p0-no_table-d3-lru': ('64d707471de2df4e3ee12bc21c40332a', 'c4f96e6ff883987dfca680e8745946a4'),
    'o6-p0-no_table-d3-fifo': ('64d707471de2df4e3ee12bc21c40332a', 'c4f96e6ff883987dfca680e8745946a4'),
    'o6-p0-no_table-d3-random': ('64d707471de2df4e3ee12bc21c40332a', 'c4f96e6ff883987dfca680e8745946a4'),
    'o6-p1-dynamic-d0-lru': ('62d896a06e81d2c923b8c50365c7ee0d', '765a265c7e5f03c25ef19fe3749693f2'),
    'o6-p1-dynamic-d0-fifo': ('99832d976968d794f9cee7bf3d2b3374', 'c67f3a031f10dc4b04765cad152ab3fc'),
    'o6-p1-dynamic-d0-random': ('7b6035bb42a341c9bb1057694e91d50b', 'ed4642f64e95ffcc9b4d0415f7b1ea9c'),
    'o6-p1-dynamic-d3-lru': ('c4ff4f77b2d90bdd77def692f3bca712', '256517a55dc80246af6012de371b294c'),
    'o6-p1-dynamic-d3-fifo': ('e1893103f3f0aff6618d8761bf26b721', '226ebf6c2bc114735b1b4d49b7edd1c0'),
    'o6-p1-dynamic-d3-random': ('2eab63387196e8a2e4bd7395496f93d3', '91e1ce35dda16c92267933f3f62aa45f'),
    'o6-p1-static-d0-lru': ('3ee98368d16f2f8c39f7a1829d994dac', '2e91f4f997f9c918c7c3b0dfc1df989a'),
    'o6-p1-static-d0-fifo': ('3ee98368d16f2f8c39f7a1829d994dac', '1324e09dad4dea49d3c729ba6f357df8'),
    'o6-p1-static-d0-random': ('3ee98368d16f2f8c39f7a1829d994dac', 'b25e21fd7e93244255fcddbde873917e'),
    'o6-p1-static-d3-lru': ('3ee98368d16f2f8c39f7a1829d994dac', '2e91f4f997f9c918c7c3b0dfc1df989a'),
    'o6-p1-static-d3-fifo': ('3ee98368d16f2f8c39f7a1829d994dac', '1324e09dad4dea49d3c729ba6f357df8'),
    'o6-p1-static-d3-random': ('3ee98368d16f2f8c39f7a1829d994dac', 'b25e21fd7e93244255fcddbde873917e'),
    'o6-p1-no_table-d0-lru': ('aae603a32811e8e4f3e762f2c434a0a7', '0227b97489345091858ce113613c2f95'),
    'o6-p1-no_table-d0-fifo': ('aae603a32811e8e4f3e762f2c434a0a7', '0227b97489345091858ce113613c2f95'),
    'o6-p1-no_table-d0-random': ('aae603a32811e8e4f3e762f2c434a0a7', '0227b97489345091858ce113613c2f95'),
    'o6-p1-no_table-d3-lru': ('aae603a32811e8e4f3e762f2c434a0a7', '0227b97489345091858ce113613c2f95'),
    'o6-p1-no_table-d3-fifo': ('aae603a32811e8e4f3e762f2c434a0a7', '0227b97489345091858ce113613c2f95'),
    'o6-p1-no_table-d3-random': ('aae603a32811e8e4f3e762f2c434a0a7', '0227b97489345091858ce113613c2f95'),
    'o6-p9-dynamic-d0-lru': ('c088d08d4276566485926801a617ced6', '6b7573246a46524332fdace6dce4d846'),
    'o6-p9-dynamic-d0-fifo': ('2903f74047727aeb9eeb71c6563a7e94', 'bc7140ecfb822d5ff77378a9a6a21504'),
    'o6-p9-dynamic-d0-random': ('121bc907941c60e3f9c57fd1c39fe246', 'cbaf9db9275459fe15429b8c01652c96'),
    'o6-p9-dynamic-d3-lru': ('e8b8a37439e660d5b2ce2c838b0a6dd1', '00379de30787f335a55c25c847bc693b'),
    'o6-p9-dynamic-d3-fifo': ('e2ebf459647b682cdfaef98d86d1767f', '3e9acf11f8d2061e050c715fdc83b94e'),
    'o6-p9-dynamic-d3-random': ('3dcb0ab1e31d493a681a49aa55e2cace', '16a0b84e4e6905ed1f6eaaba06f1b4b2'),
    'o6-p9-static-d0-lru': ('c51ba5435c729c173526d7ce151c9f79', '927dea5315594c06ce151b5ad8a1da00'),
    'o6-p9-static-d0-fifo': ('c51ba5435c729c173526d7ce151c9f79', 'f0186b20c4c92f7a8d4ed164d58a1f47'),
    'o6-p9-static-d0-random': ('c51ba5435c729c173526d7ce151c9f79', '99a86a589f0b63a770459634059c7be5'),
    'o6-p9-static-d3-lru': ('c51ba5435c729c173526d7ce151c9f79', '927dea5315594c06ce151b5ad8a1da00'),
    'o6-p9-static-d3-fifo': ('c51ba5435c729c173526d7ce151c9f79', 'f0186b20c4c92f7a8d4ed164d58a1f47'),
    'o6-p9-static-d3-random': ('c51ba5435c729c173526d7ce151c9f79', '99a86a589f0b63a770459634059c7be5'),
    'o6-p9-no_table-d0-lru': ('5f0e3954357a1abb125a697778542823', '56251078a1bb46d3ea503625d482463e'),
    'o6-p9-no_table-d0-fifo': ('5f0e3954357a1abb125a697778542823', '56251078a1bb46d3ea503625d482463e'),
    'o6-p9-no_table-d0-random': ('5f0e3954357a1abb125a697778542823', '56251078a1bb46d3ea503625d482463e'),
    'o6-p9-no_table-d3-lru': ('5f0e3954357a1abb125a697778542823', '56251078a1bb46d3ea503625d482463e'),
    'o6-p9-no_table-d3-fifo': ('5f0e3954357a1abb125a697778542823', '56251078a1bb46d3ea503625d482463e'),
    'o6-p9-no_table-d3-random': ('5f0e3954357a1abb125a697778542823', '56251078a1bb46d3ea503625d482463e'),
    'o7-p0-dynamic-d0-lru': ('eb86d4ec3620a29c47c8f57fd95f760d', 'bcdac8613d9de365b0e976812a364d4c'),
    'o7-p0-dynamic-d0-fifo': ('8d638640cb91ecd5999421eb98c26d80', 'f55cee91fff70b6cb9d9d6fae651fc5f'),
    'o7-p0-dynamic-d0-random': ('21e666e96d7b8d2fb0111eceea103417', '73261d75744244d0c191ba1072933d00'),
    'o7-p0-dynamic-d3-lru': ('d51d508487b8fd376c8135518188fcf9', 'e9276a1970134eac0799eb10a71609cd'),
    'o7-p0-dynamic-d3-fifo': ('cf1e0974a8ea6820e6661c170069f955', '431db833df5d476e69ed03be54f70eae'),
    'o7-p0-dynamic-d3-random': ('d3e3f52f80862e5ef459d0bfa479d909', '6878ca0a5335b53e0fcbf288a57503cb'),
    'o7-p0-static-d0-lru': ('155bd347986657c874fa6cbd1aa0bd1e', 'e2590530bc97a16afebfc83939bd2f69'),
    'o7-p0-static-d0-fifo': ('155bd347986657c874fa6cbd1aa0bd1e', '3e973b1a475b11aed1b31f524a841969'),
    'o7-p0-static-d0-random': ('155bd347986657c874fa6cbd1aa0bd1e', 'b816b8229a90fbc485c4afff866edef7'),
    'o7-p0-static-d3-lru': ('155bd347986657c874fa6cbd1aa0bd1e', 'e2590530bc97a16afebfc83939bd2f69'),
    'o7-p0-static-d3-fifo': ('155bd347986657c874fa6cbd1aa0bd1e', '3e973b1a475b11aed1b31f524a841969'),
    'o7-p0-static-d3-random': ('155bd347986657c874fa6cbd1aa0bd1e', 'b816b8229a90fbc485c4afff866edef7'),
    'o7-p0-no_table-d0-lru': ('b780a456b7c47b3262e37a03ddc047ae', '02dd44c8579a0d5a19e62ffdba0bf886'),
    'o7-p0-no_table-d0-fifo': ('b780a456b7c47b3262e37a03ddc047ae', '02dd44c8579a0d5a19e62ffdba0bf886'),
    'o7-p0-no_table-d0-random': ('b780a456b7c47b3262e37a03ddc047ae', '02dd44c8579a0d5a19e62ffdba0bf886'),
    'o7-p0-no_table-d3-lru': ('b780a456b7c47b3262e37a03ddc047ae', '02dd44c8579a0d5a19e62ffdba0bf886'),
    'o7-p0-no_table-d3-fifo': ('b780a456b7c47b3262e37a03ddc047ae', '02dd44c8579a0d5a19e62ffdba0bf886'),
    'o7-p0-no_table-d3-random': ('b780a456b7c47b3262e37a03ddc047ae', '02dd44c8579a0d5a19e62ffdba0bf886'),
    'o7-p1-dynamic-d0-lru': ('897123df97fd751fb6956b225593841d', 'c397fdbc1d006e89c1cd07cbee658416'),
    'o7-p1-dynamic-d0-fifo': ('3825ee215174da6c9b39c30594873d18', '111ad07363ba431ac67b607403b5d4c7'),
    'o7-p1-dynamic-d0-random': ('8de1e2d735556ee51c7c3f382c24119f', 'da034c3d04217641de6ecbbf9fbc25da'),
    'o7-p1-dynamic-d3-lru': ('9aea9a4de2b7f6d672415a1bb79ff477', 'ec6c2558af96c4580925a81893450ad1'),
    'o7-p1-dynamic-d3-fifo': ('b61d172133b7b7751cf0058b71243ff8', '9e004b1040a20bfbd25311890f7ca02e'),
    'o7-p1-dynamic-d3-random': ('22f9e967f7e855c470009110c68172a9', '6c95c76f062f20cc97942e8760516210'),
    'o7-p1-static-d0-lru': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', 'd10fb1f7ef253abc79daddca1dd7b0b0'),
    'o7-p1-static-d0-fifo': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', 'd1aa8e37c78bfed106c3e1ed8f89c514'),
    'o7-p1-static-d0-random': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', 'e2986afd313734a5c6f1e264d6213683'),
    'o7-p1-static-d3-lru': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', 'd10fb1f7ef253abc79daddca1dd7b0b0'),
    'o7-p1-static-d3-fifo': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', 'd1aa8e37c78bfed106c3e1ed8f89c514'),
    'o7-p1-static-d3-random': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', 'e2986afd313734a5c6f1e264d6213683'),
    'o7-p1-no_table-d0-lru': ('3a0fd0eee33081e587d57e22516f08a6', '6a260d7c546aaaf6ad94ec2aecd041e5'),
    'o7-p1-no_table-d0-fifo': ('3a0fd0eee33081e587d57e22516f08a6', '6a260d7c546aaaf6ad94ec2aecd041e5'),
    'o7-p1-no_table-d0-random': ('3a0fd0eee33081e587d57e22516f08a6', '6a260d7c546aaaf6ad94ec2aecd041e5'),
    'o7-p1-no_table-d3-lru': ('3a0fd0eee33081e587d57e22516f08a6', '6a260d7c546aaaf6ad94ec2aecd041e5'),
    'o7-p1-no_table-d3-fifo': ('3a0fd0eee33081e587d57e22516f08a6', '6a260d7c546aaaf6ad94ec2aecd041e5'),
    'o7-p1-no_table-d3-random': ('3a0fd0eee33081e587d57e22516f08a6', '6a260d7c546aaaf6ad94ec2aecd041e5'),
    'o7-p9-dynamic-d0-lru': ('97e95eb26478b86dba17546db7bfbca4', '921a05e31affe5c8dda952133747afb5'),
    'o7-p9-dynamic-d0-fifo': ('8f6434353ff92a4715771c63e8e78443', '31229cfdaffb085ee98873e4e3e823a1'),
    'o7-p9-dynamic-d0-random': ('11fed5dbf5e9da9c19b7e41bd13a102e', '1e77359f808eaf28a27bc24d9ff610c5'),
    'o7-p9-dynamic-d3-lru': ('335f72518272071da261dba4ecc4b5ce', '6dd40c7af9b6e8fff28157ed2869c144'),
    'o7-p9-dynamic-d3-fifo': ('28e5ce8edf052dac474fe7231b96e3e0', '3b19b439bfb83ec07a724f3de00f0719'),
    'o7-p9-dynamic-d3-random': ('c0c32ee87ff2d153813d995fcba80fcb', 'c10a94df5d92c1861933aabc1da94910'),
    'o7-p9-static-d0-lru': ('cc65863031e8dc7deaa05f8afcef799e', 'c41d7c26203a82118151f54fad67237e'),
    'o7-p9-static-d0-fifo': ('cc65863031e8dc7deaa05f8afcef799e', '57363e2fce931246be6b73667c7499af'),
    'o7-p9-static-d0-random': ('cc65863031e8dc7deaa05f8afcef799e', 'c55702a26e7b6c8714e195f888b44211'),
    'o7-p9-static-d3-lru': ('cc65863031e8dc7deaa05f8afcef799e', 'c41d7c26203a82118151f54fad67237e'),
    'o7-p9-static-d3-fifo': ('cc65863031e8dc7deaa05f8afcef799e', '57363e2fce931246be6b73667c7499af'),
    'o7-p9-static-d3-random': ('cc65863031e8dc7deaa05f8afcef799e', 'c55702a26e7b6c8714e195f888b44211'),
    'o7-p9-no_table-d0-lru': ('4dacafe1702e742f8ae8910d5bf75611', 'd2bef8b1a85ec90144015cc7b09657aa'),
    'o7-p9-no_table-d0-fifo': ('4dacafe1702e742f8ae8910d5bf75611', 'd2bef8b1a85ec90144015cc7b09657aa'),
    'o7-p9-no_table-d0-random': ('4dacafe1702e742f8ae8910d5bf75611', 'd2bef8b1a85ec90144015cc7b09657aa'),
    'o7-p9-no_table-d3-lru': ('4dacafe1702e742f8ae8910d5bf75611', 'd2bef8b1a85ec90144015cc7b09657aa'),
    'o7-p9-no_table-d3-fifo': ('4dacafe1702e742f8ae8910d5bf75611', 'd2bef8b1a85ec90144015cc7b09657aa'),
    'o7-p9-no_table-d3-random': ('4dacafe1702e742f8ae8910d5bf75611', 'd2bef8b1a85ec90144015cc7b09657aa'),
    'o8-p0-dynamic-d0-lru': ('f7f2df574bd2c65363307107275e9b3a', '4146e54d07394c36bcbd190d658f8783'),
    'o8-p0-dynamic-d0-fifo': ('0a64ffa7b1d48e0eb67436f2f192345d', '9a4d582622536e9a96ba5f58838398b9'),
    'o8-p0-dynamic-d0-random': ('7128655c87130ed6468e83a6362bd329', 'dd46e27f2df5cbc5059aaa1c477d212e'),
    'o8-p0-dynamic-d3-lru': ('2b7f396243c3c9cbdaef28de382d779c', '9055a6f6431edadf59bfbb79ff26f6ef'),
    'o8-p0-dynamic-d3-fifo': ('9529c92af39cd776682e233e003f9a0d', '5a184021e90a04fc84da375d9768b43e'),
    'o8-p0-dynamic-d3-random': ('c71b04d6c5f01b301433fb7c5f6ece7f', '961423007eb7fd08b974ebe5d0b15597'),
    'o8-p0-static-d0-lru': ('4d15a9de89642a72d9d32ea3811d52a6', 'cd2e52ddedaf9fd8a164456cfcd345ce'),
    'o8-p0-static-d0-fifo': ('4d15a9de89642a72d9d32ea3811d52a6', '9c3b0380994e1c0a35d41dee8ba26fb9'),
    'o8-p0-static-d0-random': ('4d15a9de89642a72d9d32ea3811d52a6', 'de4c12326269aeb4a4b7ab70c405735e'),
    'o8-p0-static-d3-lru': ('4d15a9de89642a72d9d32ea3811d52a6', 'cd2e52ddedaf9fd8a164456cfcd345ce'),
    'o8-p0-static-d3-fifo': ('4d15a9de89642a72d9d32ea3811d52a6', '9c3b0380994e1c0a35d41dee8ba26fb9'),
    'o8-p0-static-d3-random': ('4d15a9de89642a72d9d32ea3811d52a6', 'de4c12326269aeb4a4b7ab70c405735e'),
    'o8-p0-no_table-d0-lru': ('396db8ce90e6da3ddd5693249e0e05db', 'b7badfe0ae87a03469f03608aab789f5'),
    'o8-p0-no_table-d0-fifo': ('396db8ce90e6da3ddd5693249e0e05db', 'b7badfe0ae87a03469f03608aab789f5'),
    'o8-p0-no_table-d0-random': ('396db8ce90e6da3ddd5693249e0e05db', 'b7badfe0ae87a03469f03608aab789f5'),
    'o8-p0-no_table-d3-lru': ('396db8ce90e6da3ddd5693249e0e05db', 'b7badfe0ae87a03469f03608aab789f5'),
    'o8-p0-no_table-d3-fifo': ('396db8ce90e6da3ddd5693249e0e05db', 'b7badfe0ae87a03469f03608aab789f5'),
    'o8-p0-no_table-d3-random': ('396db8ce90e6da3ddd5693249e0e05db', 'b7badfe0ae87a03469f03608aab789f5'),
    'o8-p1-dynamic-d0-lru': ('cc6867907962523b8bb48912981e52c9', '0d1dc5f7c7fbb8a0d464083ee021879d'),
    'o8-p1-dynamic-d0-fifo': ('9deda64b2113df6d64e8f744a559aaf5', '7c674057fd9f3a8e33e18cfd714687e6'),
    'o8-p1-dynamic-d0-random': ('623c1954d08068d4225a57f464da0e42', 'e2ee0b1c677b04a4f5c3332aaffa1820'),
    'o8-p1-dynamic-d3-lru': ('40bd38b90277255e90bebd1592ff4143', '85c079f7c29070450580bd309ea0ce3e'),
    'o8-p1-dynamic-d3-fifo': ('f632cc315d45633d047c46aeab507360', '3efad079107be41fc3cbf7301a929b59'),
    'o8-p1-dynamic-d3-random': ('4a0f357f1c9d254d1b4904171ebf5c26', 'e5e0a57b59adce6c80b84e003156088f'),
    'o8-p1-static-d0-lru': ('ce369f66345a100d45a9b0107e7d6e4e', '8db3b1964238712cbd443d038969cb82'),
    'o8-p1-static-d0-fifo': ('ce369f66345a100d45a9b0107e7d6e4e', '94740951092847ae778889fd76d35201'),
    'o8-p1-static-d0-random': ('ce369f66345a100d45a9b0107e7d6e4e', '3a772e14681faffc9bc90bfaa5a4a168'),
    'o8-p1-static-d3-lru': ('ce369f66345a100d45a9b0107e7d6e4e', '8db3b1964238712cbd443d038969cb82'),
    'o8-p1-static-d3-fifo': ('ce369f66345a100d45a9b0107e7d6e4e', '94740951092847ae778889fd76d35201'),
    'o8-p1-static-d3-random': ('ce369f66345a100d45a9b0107e7d6e4e', '3a772e14681faffc9bc90bfaa5a4a168'),
    'o8-p1-no_table-d0-lru': ('c108dc7dbf80f6679fe4b60ce7b62756', '6581b83f8e1564c55638baac80e194a1'),
    'o8-p1-no_table-d0-fifo': ('c108dc7dbf80f6679fe4b60ce7b62756', '6581b83f8e1564c55638baac80e194a1'),
    'o8-p1-no_table-d0-random': ('c108dc7dbf80f6679fe4b60ce7b62756', '6581b83f8e1564c55638baac80e194a1'),
    'o8-p1-no_table-d3-lru': ('c108dc7dbf80f6679fe4b60ce7b62756', '6581b83f8e1564c55638baac80e194a1'),
    'o8-p1-no_table-d3-fifo': ('c108dc7dbf80f6679fe4b60ce7b62756', '6581b83f8e1564c55638baac80e194a1'),
    'o8-p1-no_table-d3-random': ('c108dc7dbf80f6679fe4b60ce7b62756', '6581b83f8e1564c55638baac80e194a1'),
    'o8-p9-dynamic-d0-lru': ('612cea983cd0422072409393edd9442c', 'db1d09e6b1dd9b74c4bd5da539df1a1f'),
    'o8-p9-dynamic-d0-fifo': ('c08b74e98d0f353f6f29a3a2cb096f0b', '926dfd665cf02cc642c8fdee079c83ef'),
    'o8-p9-dynamic-d0-random': ('bbec03c9525bb10a2b4fa5df8357f82a', 'b5ee2f8f25d68c9b460db3a20a3eabe8'),
    'o8-p9-dynamic-d3-lru': ('53a4c689d1ea72cfb2c67b9bc9c1a3f2', '13afd303bfc9433f4af658e6b910b34e'),
    'o8-p9-dynamic-d3-fifo': ('ee5ecc378f29f2edd0909ad4c376d110', '99e6384941d09e93ac6a8d3f21655eb1'),
    'o8-p9-dynamic-d3-random': ('94bbfc914237a8ad193882b6cf22861c', '88040470c9e40a62bd06aac6f834ef19'),
    'o8-p9-static-d0-lru': ('8f83b60e1ef3bc4524298ffbe604ece2', '53b2d1ea1ad30943f72fbed08f1b8588'),
    'o8-p9-static-d0-fifo': ('8f83b60e1ef3bc4524298ffbe604ece2', 'dd982557f419915797753c806814116b'),
    'o8-p9-static-d0-random': ('8f83b60e1ef3bc4524298ffbe604ece2', 'da783158d050762832786863a49a8dea'),
    'o8-p9-static-d3-lru': ('8f83b60e1ef3bc4524298ffbe604ece2', '53b2d1ea1ad30943f72fbed08f1b8588'),
    'o8-p9-static-d3-fifo': ('8f83b60e1ef3bc4524298ffbe604ece2', 'dd982557f419915797753c806814116b'),
    'o8-p9-static-d3-random': ('8f83b60e1ef3bc4524298ffbe604ece2', 'da783158d050762832786863a49a8dea'),
    'o8-p9-no_table-d0-lru': ('a2e65fc7729fcc0be849bb3cea3b537b', '4fd9dbace51181245c4a6e6798f2e3d8'),
    'o8-p9-no_table-d0-fifo': ('a2e65fc7729fcc0be849bb3cea3b537b', '4fd9dbace51181245c4a6e6798f2e3d8'),
    'o8-p9-no_table-d0-random': ('a2e65fc7729fcc0be849bb3cea3b537b', '4fd9dbace51181245c4a6e6798f2e3d8'),
    'o8-p9-no_table-d3-lru': ('a2e65fc7729fcc0be849bb3cea3b537b', '4fd9dbace51181245c4a6e6798f2e3d8'),
    'o8-p9-no_table-d3-fifo': ('a2e65fc7729fcc0be849bb3cea3b537b', '4fd9dbace51181245c4a6e6798f2e3d8'),
    'o8-p9-no_table-d3-random': ('a2e65fc7729fcc0be849bb3cea3b537b', '4fd9dbace51181245c4a6e6798f2e3d8'),
}


if __name__ == "__main__":
    print("PINS = {")
    for name in CASES:
        print(f"    {name!r}: {compute(name, 'pure')!r},")
    print("}")
