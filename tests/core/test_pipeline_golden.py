"""Golden bytes of the GD record pipeline.

For every combination of Hamming order 3–8, prefix width {0, 1, 9}, mode
{dynamic, static, no_table} and eviction policy
{lru, fifo, seeded random} — over a dictionary of four identifiers, small
enough that the twelve bases of the input evict all trace long (static
cases: sixteen, see :func:`test_static_mode_with_a_full_table_round_trips`)
— two md5s are pinned: the joined ``GDStreamCompressor.compress_stream``
output and the canonical JSON of the encoder and decoder
``snapshot_state()`` after a round trip; the
``GDCodec.compress_to_container`` blob must equal that stream byte for
byte (one GDZ1 writer serves both).  Every codec backend must reproduce
the same pins, and so must every way of cutting the stream into blocks:
one byte at a time, or in blocks no chunk size above one byte divides,
on the way in and on the way back out.  A refactor of the pipeline
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

from gd_oracle import roundtrip

ORDERS = (3, 4, 5, 6, 7, 8)
PREFIX_BITS = (0, 1, 9)
MODES = ("dynamic", "static", "no_table")
EVICTIONS = ("lru", "fifo", "random")

IDENTIFIER_BITS = 2
#: Static tables hold four bases too, in a dictionary with room for all
#: twelve.  The width is part of the pinned container header; the full-table
#: case is :func:`test_static_mode_with_a_full_table_round_trips`.
STATIC_IDENTIFIER_BITS = 4
DISTINCT_BASES = 12
CHUNKS = 160
EVICTION_SEED = 77
#: Stream block sizes, compressing and decompressing: byte at a time, and
#: never a multiple of a chunk size above one byte.
BLOCK_SIZES = (1, 1333)

CASES = [
    f"o{order}-p{prefix}-{mode}-{eviction}"
    for order, prefix, mode, eviction in itertools.product(
        ORDERS, PREFIX_BITS, MODES, EVICTIONS
    )
]


def _parse(case):
    order, prefix, mode, eviction = case.split("-")
    return int(order[1:]), int(prefix[1:]), mode, eviction


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


def _blocks(data, block_bytes):
    return [data[offset : offset + block_bytes] for offset in range(0, len(data), block_bytes)]


def compute(case, backend, block_bytes=BLOCK_SIZES[-1]):
    """``(stream md5, state md5)`` of one case."""
    order, prefix_bits, mode, eviction = _parse(case)
    chunk_bits, data, static_bases = _input(order, prefix_bits)
    kwargs = dict(
        order=order,
        chunk_bits=chunk_bits,
        identifier_bits=(
            STATIC_IDENTIFIER_BITS if mode == "static" else IDENTIFIER_BITS
        ),
        mode=mode,
        eviction_policy=eviction,
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

    stream = b"".join(
        GDStreamCompressor(**kwargs).compress_stream(_blocks(data, block_bytes))
    )
    restored = GDStreamCompressor(**kwargs).decompress_stream(
        _blocks(stream, block_bytes)
    )
    assert b"".join(restored) == data
    assert container == stream
    return _md5(stream), _md5(state)


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("backend", available_backend_names())
@pytest.mark.parametrize("case", CASES)
def test_pipeline_golden(case, backend, block_bytes):
    assert compute(case, backend, block_bytes) == PINS[case]


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
    assert roundtrip(codec, data) == data


#: case -> (stream md5, state md5).
PINS = {
    'o3-p0-dynamic-lru': ('a76b30df8e0d94eaca6c749e17ca85ef', 'f4eb160a93b6a7cf6b2d5abc8ad2a226'),
    'o3-p0-dynamic-fifo': ('3f2bef4997614c1d4c5e00bb19e77b13', 'ff37bf69ac2a857546e8c1bb3fde3f62'),
    'o3-p0-dynamic-random': ('547f428341275223c3e21dea8ad3a438', '4f5169d29b818c07513b5bffc739db78'),
    'o3-p0-static-lru': ('f7afa7298aa1c18ff4535f8b41548f72', 'cfafad2dd78e3f5350ce9be33a206b85'),
    'o3-p0-static-fifo': ('f7afa7298aa1c18ff4535f8b41548f72', '6dab41057098090c48603c55dce1f84d'),
    'o3-p0-static-random': ('f7afa7298aa1c18ff4535f8b41548f72', '9b65518a0b503ba0f22911bce1256340'),
    'o3-p0-no_table-lru': ('944a496374f1195df498089c398779ba', 'ec6773fab1a1c73613471c8a0f062865'),
    'o3-p0-no_table-fifo': ('944a496374f1195df498089c398779ba', 'ec6773fab1a1c73613471c8a0f062865'),
    'o3-p0-no_table-random': ('944a496374f1195df498089c398779ba', 'ec6773fab1a1c73613471c8a0f062865'),
    'o3-p1-dynamic-lru': ('7a01f43b9ef2f82062fdbb2b5c72de37', '61b9189560c2884f6b16f9220099b78b'),
    'o3-p1-dynamic-fifo': ('254deb586087afb5c92f5f099e8d556e', 'e19ad5abf5007c527d63062d1aefbfb7'),
    'o3-p1-dynamic-random': ('219c60c9fffbfebf9cd93d214d6f410a', 'bd5caf1a69bb9d6c7fefb261afb0c6c7'),
    'o3-p1-static-lru': ('be4007953a542d366746f5567ee8e70d', '671bed203c05aa37bc76f2c932c4aee8'),
    'o3-p1-static-fifo': ('be4007953a542d366746f5567ee8e70d', '60df73d2693a8096e86f53c905118550'),
    'o3-p1-static-random': ('be4007953a542d366746f5567ee8e70d', '849ff0791c5007a32c4e37a37c36ad12'),
    'o3-p1-no_table-lru': ('203a424440c5338821e66c386600edbe', 'd3fe82761f7a268ab77d35e7fe7b2626'),
    'o3-p1-no_table-fifo': ('203a424440c5338821e66c386600edbe', 'd3fe82761f7a268ab77d35e7fe7b2626'),
    'o3-p1-no_table-random': ('203a424440c5338821e66c386600edbe', 'd3fe82761f7a268ab77d35e7fe7b2626'),
    'o3-p9-dynamic-lru': ('69127c1d7b3bd9db7f8f883cf712921c', '6f217020d631076d75ac4dd84a70c138'),
    'o3-p9-dynamic-fifo': ('6338960aeac7867a63ef601a7a8e6695', 'c0e42ad82472836b0f9675f15c50c6b7'),
    'o3-p9-dynamic-random': ('e81dd5683e4c48f7029c0d8ef4f61f4f', '782048c35c2e815790084538e88f7016'),
    'o3-p9-static-lru': ('4f7606caa9e56122bfd43de63461e6b7', 'a381a1ad651c93681dcf82be8a37b873'),
    'o3-p9-static-fifo': ('4f7606caa9e56122bfd43de63461e6b7', '07f8d9a377f0a8ab514c054af2f1f0f6'),
    'o3-p9-static-random': ('4f7606caa9e56122bfd43de63461e6b7', '751bc07b310d6cca52ebd8c04b7a0e8d'),
    'o3-p9-no_table-lru': ('6d4f20d492f5572f7f4fc5b1bbd13792', 'a9f6b1bdbb7f74e510cdf4639e81b429'),
    'o3-p9-no_table-fifo': ('6d4f20d492f5572f7f4fc5b1bbd13792', 'a9f6b1bdbb7f74e510cdf4639e81b429'),
    'o3-p9-no_table-random': ('6d4f20d492f5572f7f4fc5b1bbd13792', 'a9f6b1bdbb7f74e510cdf4639e81b429'),
    'o4-p0-dynamic-lru': ('12cfdb83c2dde7d8d1612ec03a12b613', '12dc0ef7dc5d8d9fd4802319ae66ea4d'),
    'o4-p0-dynamic-fifo': ('33eb8320350098422a859fadeb53c96b', '1ecf84817073a7519399c8abd18831ac'),
    'o4-p0-dynamic-random': ('724865fb369930fd1f1c3f52924090bf', 'd2b97fd537a8e3e9cab4410da07f7f47'),
    'o4-p0-static-lru': ('89f9c665c6d01d603a31fad65b6b5cb6', 'a47cc09197fc6230f7d73a1a234f1478'),
    'o4-p0-static-fifo': ('89f9c665c6d01d603a31fad65b6b5cb6', 'd3785e62be47b586d18a874b865d9582'),
    'o4-p0-static-random': ('89f9c665c6d01d603a31fad65b6b5cb6', '0b1d93d6f5466682a7a56d821d96ebaa'),
    'o4-p0-no_table-lru': ('df4e5cf3564e78d7fe10f0bdeab2741f', '57f318ef7e85bb19a34b9fd01b48953d'),
    'o4-p0-no_table-fifo': ('df4e5cf3564e78d7fe10f0bdeab2741f', '57f318ef7e85bb19a34b9fd01b48953d'),
    'o4-p0-no_table-random': ('df4e5cf3564e78d7fe10f0bdeab2741f', '57f318ef7e85bb19a34b9fd01b48953d'),
    'o4-p1-dynamic-lru': ('7d03d6c2266ed5d09c32e69d56b8fbb9', '53e05641cb8cd67ed7f3cb47f3a5b4e0'),
    'o4-p1-dynamic-fifo': ('c645d4a3edf47a68d443525ed94f19bc', '21befd426e734d7a02d1730aa6ac6cc6'),
    'o4-p1-dynamic-random': ('70f6689cafb578058d2994e3202c97d5', '03cb2f964940591a83cadf5eac6f0c4a'),
    'o4-p1-static-lru': ('f7987bd818ced5589bb7af2cf58acffd', '805ff6be0b9a58c65e71c39b9badda12'),
    'o4-p1-static-fifo': ('f7987bd818ced5589bb7af2cf58acffd', '2e6cfd153eda26c6d0091ea2120854d8'),
    'o4-p1-static-random': ('f7987bd818ced5589bb7af2cf58acffd', 'edd80f340576c36857250a1211ec772a'),
    'o4-p1-no_table-lru': ('4582a9c63ff7a5b45ab24e5192d58857', 'a9f6b1bdbb7f74e510cdf4639e81b429'),
    'o4-p1-no_table-fifo': ('4582a9c63ff7a5b45ab24e5192d58857', 'a9f6b1bdbb7f74e510cdf4639e81b429'),
    'o4-p1-no_table-random': ('4582a9c63ff7a5b45ab24e5192d58857', 'a9f6b1bdbb7f74e510cdf4639e81b429'),
    'o4-p9-dynamic-lru': ('898425eb8ee37307a0203148fb323473', '366d28bbfd8ae077bc0e5e5211d3f95d'),
    'o4-p9-dynamic-fifo': ('ff3175e371a4b001c96f347a30e96aa8', 'bad5dc5fa9d9469849229fd340c34f25'),
    'o4-p9-dynamic-random': ('e21b6ae8d967f0a4341859e6ec30ff9e', '21a785ef89627b2153611a2fa1314775'),
    'o4-p9-static-lru': ('a2adc55f957a8db61008c90e12e1e3b8', 'e07cfb08a37ccdeca2221a0a2f9568e2'),
    'o4-p9-static-fifo': ('a2adc55f957a8db61008c90e12e1e3b8', 'f544db465c807002320ba8985eb92b4c'),
    'o4-p9-static-random': ('a2adc55f957a8db61008c90e12e1e3b8', '5eacca2ebfdfa3ad46265c1cf37aae47'),
    'o4-p9-no_table-lru': ('a4d898c93e1bf52058c98b8ea9a4d813', 'be6437387c250b718d4958a79edde5b6'),
    'o4-p9-no_table-fifo': ('a4d898c93e1bf52058c98b8ea9a4d813', 'be6437387c250b718d4958a79edde5b6'),
    'o4-p9-no_table-random': ('a4d898c93e1bf52058c98b8ea9a4d813', 'be6437387c250b718d4958a79edde5b6'),
    'o5-p0-dynamic-lru': ('919ad7e7c5ee46e07a44b947c1d01559', 'dd1b200a28c568751e440c1604cc241b'),
    'o5-p0-dynamic-fifo': ('c09bff7fdc7ee15f3cd847d16e599465', 'a2af9bf51bec74d5ed85bc96dbe6713a'),
    'o5-p0-dynamic-random': ('a6765ef69dec79bee2e791bb8ec57fdc', '920217a312fcdd957a7b91b0623c4853'),
    'o5-p0-static-lru': ('31ba8b7b15895cbd2d37b5a6aa595ebd', '497447eafaf7c9817290cbf640257714'),
    'o5-p0-static-fifo': ('31ba8b7b15895cbd2d37b5a6aa595ebd', 'b89bc68ef24b81281b2059f9ec9bc0bf'),
    'o5-p0-static-random': ('31ba8b7b15895cbd2d37b5a6aa595ebd', '933cf1366c99c81d4f3a183c74f3a91b'),
    'o5-p0-no_table-lru': ('24b7dd2eb3b022c84aab897a27d94ce1', 'd566c0a1c2f9ba0febc579f4661b62c5'),
    'o5-p0-no_table-fifo': ('24b7dd2eb3b022c84aab897a27d94ce1', 'd566c0a1c2f9ba0febc579f4661b62c5'),
    'o5-p0-no_table-random': ('24b7dd2eb3b022c84aab897a27d94ce1', 'd566c0a1c2f9ba0febc579f4661b62c5'),
    'o5-p1-dynamic-lru': ('05c6f92b4616625ceb1b2c507cef995f', '0e151888dc5dd79844f22f374f2f8cc2'),
    'o5-p1-dynamic-fifo': ('deb9bd232edb5526eac580c96cc7ddb5', '6bdd8cbad50edecba5ebe64c147f474a'),
    'o5-p1-dynamic-random': ('34e0392b922bc9ac308594046fc3a4a6', '835f9b4302819daf4b076a22408c050c'),
    'o5-p1-static-lru': ('43d9308fc2df9566b69a073f312c886d', 'ba7215d7cebc152fd3b4d862b0e3847c'),
    'o5-p1-static-fifo': ('43d9308fc2df9566b69a073f312c886d', '9777443f6c47dfb9a9c2746923f1837f'),
    'o5-p1-static-random': ('43d9308fc2df9566b69a073f312c886d', '2cf317c01457d0af0bd101d2f6aedf5d'),
    'o5-p1-no_table-lru': ('a887ee89da52e8f4bd527c6561afe627', '00ab4ebd1e792d3d294986e0b0dcfcf5'),
    'o5-p1-no_table-fifo': ('a887ee89da52e8f4bd527c6561afe627', '00ab4ebd1e792d3d294986e0b0dcfcf5'),
    'o5-p1-no_table-random': ('a887ee89da52e8f4bd527c6561afe627', '00ab4ebd1e792d3d294986e0b0dcfcf5'),
    'o5-p9-dynamic-lru': ('447767cf2d49d1683d5f24ccd178f7e4', '924e2a3ce41b9a085378d1bde5bb9f5f'),
    'o5-p9-dynamic-fifo': ('19fd85c9007468a38e158b4b5b522bda', 'ef8f7fffe34c17604841307b6e90bfa9'),
    'o5-p9-dynamic-random': ('dc4744842ae01f3376792439a887ca48', '92ce6b161727a967ff057e3655cdaf12'),
    'o5-p9-static-lru': ('7ebd7f57af9dceef03a7cc47647f8680', '2ed9d328ebbb740d0e4fa17a54141b19'),
    'o5-p9-static-fifo': ('7ebd7f57af9dceef03a7cc47647f8680', 'c44feab9b0ec1566522c06e47dac5b81'),
    'o5-p9-static-random': ('7ebd7f57af9dceef03a7cc47647f8680', 'a51344d24a6ba80747dbd181d165cc40'),
    'o5-p9-no_table-lru': ('fc2da9a9507d72921720322e50acbb38', 'd3b5fd50d84de11a900fde2e1e59e3e7'),
    'o5-p9-no_table-fifo': ('fc2da9a9507d72921720322e50acbb38', 'd3b5fd50d84de11a900fde2e1e59e3e7'),
    'o5-p9-no_table-random': ('fc2da9a9507d72921720322e50acbb38', 'd3b5fd50d84de11a900fde2e1e59e3e7'),
    'o6-p0-dynamic-lru': ('36cfc2c9ec55327d3c25b7fe5cc58982', 'bd00af7bd450a299461f208ed61295f1'),
    'o6-p0-dynamic-fifo': ('c546db7f06aeff6af8e8a548a9829032', '524c5848095dce53d7830245faa0a5a9'),
    'o6-p0-dynamic-random': ('6470bb00b87efa879359bfd0f00aeabe', '4bff71029792f6cdaabce02718200d31'),
    'o6-p0-static-lru': ('fc28f577cf6133b6916affe27dd02f34', '07795432c73af263bb7f30de8fbd2fcd'),
    'o6-p0-static-fifo': ('fc28f577cf6133b6916affe27dd02f34', 'feabe46ecec5501c8e25825835e81f07'),
    'o6-p0-static-random': ('fc28f577cf6133b6916affe27dd02f34', 'b5ee5cec89b3d2ad3746ce7c40ffcbb7'),
    'o6-p0-no_table-lru': ('64d707471de2df4e3ee12bc21c40332a', '553609726e1429e587f1b605de38759c'),
    'o6-p0-no_table-fifo': ('64d707471de2df4e3ee12bc21c40332a', '553609726e1429e587f1b605de38759c'),
    'o6-p0-no_table-random': ('64d707471de2df4e3ee12bc21c40332a', '553609726e1429e587f1b605de38759c'),
    'o6-p1-dynamic-lru': ('62d896a06e81d2c923b8c50365c7ee0d', '63a34086d2bd5015a0798ca1e390d5ee'),
    'o6-p1-dynamic-fifo': ('99832d976968d794f9cee7bf3d2b3374', 'bdf330cda1ebbeb2d40beb5e36218a6d'),
    'o6-p1-dynamic-random': ('7b6035bb42a341c9bb1057694e91d50b', 'fb874bf0666511e0a1db9f1d397b2fe6'),
    'o6-p1-static-lru': ('3ee98368d16f2f8c39f7a1829d994dac', '11000959c13c25803b59d9468e0c49a5'),
    'o6-p1-static-fifo': ('3ee98368d16f2f8c39f7a1829d994dac', '89fd8703fbb5800e19706f76a19e2106'),
    'o6-p1-static-random': ('3ee98368d16f2f8c39f7a1829d994dac', '9fa9c19369aaa4aa42a8e1acc8417b7e'),
    'o6-p1-no_table-lru': ('aae603a32811e8e4f3e762f2c434a0a7', '59edbc294f2abac7ca751b43f0050073'),
    'o6-p1-no_table-fifo': ('aae603a32811e8e4f3e762f2c434a0a7', '59edbc294f2abac7ca751b43f0050073'),
    'o6-p1-no_table-random': ('aae603a32811e8e4f3e762f2c434a0a7', '59edbc294f2abac7ca751b43f0050073'),
    'o6-p9-dynamic-lru': ('c088d08d4276566485926801a617ced6', 'e7c24369f81f533915fc6b26aea7694f'),
    'o6-p9-dynamic-fifo': ('2903f74047727aeb9eeb71c6563a7e94', '7ad17a5667add029610a2d697363f433'),
    'o6-p9-dynamic-random': ('121bc907941c60e3f9c57fd1c39fe246', '30fb669efcd01ec3a532738812d5d502'),
    'o6-p9-static-lru': ('c51ba5435c729c173526d7ce151c9f79', '01a6907f85646c63922736e2a13b7291'),
    'o6-p9-static-fifo': ('c51ba5435c729c173526d7ce151c9f79', 'f09e4bf336bd914591e1231692891e33'),
    'o6-p9-static-random': ('c51ba5435c729c173526d7ce151c9f79', '8d94b518bc37210a4cf707c4ba8fe67b'),
    'o6-p9-no_table-lru': ('5f0e3954357a1abb125a697778542823', 'f3ba5e4a06f43c507f825b04f47748ad'),
    'o6-p9-no_table-fifo': ('5f0e3954357a1abb125a697778542823', 'f3ba5e4a06f43c507f825b04f47748ad'),
    'o6-p9-no_table-random': ('5f0e3954357a1abb125a697778542823', 'f3ba5e4a06f43c507f825b04f47748ad'),
    'o7-p0-dynamic-lru': ('eb86d4ec3620a29c47c8f57fd95f760d', '7e050b07208efdb3b3f7b3b90dcb53ee'),
    'o7-p0-dynamic-fifo': ('8d638640cb91ecd5999421eb98c26d80', '6fa0457eebf9bcf14c5075b82ddebb14'),
    'o7-p0-dynamic-random': ('21e666e96d7b8d2fb0111eceea103417', 'd5767a1607ca30c8291f536fff158f4d'),
    'o7-p0-static-lru': ('155bd347986657c874fa6cbd1aa0bd1e', '5bb68d4e8348c8db5a5a4dbaf3ac6af0'),
    'o7-p0-static-fifo': ('155bd347986657c874fa6cbd1aa0bd1e', 'a7e20d3aaa48ff1f8e3816f18fa2ee8d'),
    'o7-p0-static-random': ('155bd347986657c874fa6cbd1aa0bd1e', '06fa7e9c9f13f1a4eba8b3e41412955d'),
    'o7-p0-no_table-lru': ('b780a456b7c47b3262e37a03ddc047ae', '12e739c8d9e024b69a267fda894fd4d0'),
    'o7-p0-no_table-fifo': ('b780a456b7c47b3262e37a03ddc047ae', '12e739c8d9e024b69a267fda894fd4d0'),
    'o7-p0-no_table-random': ('b780a456b7c47b3262e37a03ddc047ae', '12e739c8d9e024b69a267fda894fd4d0'),
    'o7-p1-dynamic-lru': ('897123df97fd751fb6956b225593841d', '944e56cafc97a097b028f56f524bc48e'),
    'o7-p1-dynamic-fifo': ('3825ee215174da6c9b39c30594873d18', 'a21d33baa737d08f3cba7a672835424b'),
    'o7-p1-dynamic-random': ('8de1e2d735556ee51c7c3f382c24119f', '87a5f75614e11535d34e720f62feb3c2'),
    'o7-p1-static-lru': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', '4af29e897a1b0bc897b45286ee427816'),
    'o7-p1-static-fifo': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', '8c9da3fbc22171d1f5b6fc4a11525649'),
    'o7-p1-static-random': ('b8d0b7c0c6d2dc92c0c68883de1a64e9', '8629e7e08eefd770c7d15341b1d392e2'),
    'o7-p1-no_table-lru': ('3a0fd0eee33081e587d57e22516f08a6', '56a419c32cc52addac0c5c8a6a8298f3'),
    'o7-p1-no_table-fifo': ('3a0fd0eee33081e587d57e22516f08a6', '56a419c32cc52addac0c5c8a6a8298f3'),
    'o7-p1-no_table-random': ('3a0fd0eee33081e587d57e22516f08a6', '56a419c32cc52addac0c5c8a6a8298f3'),
    'o7-p9-dynamic-lru': ('97e95eb26478b86dba17546db7bfbca4', '4dc45099d32a7f3fd68d85d75809fec4'),
    'o7-p9-dynamic-fifo': ('8f6434353ff92a4715771c63e8e78443', '1c53ef3c14538dd02c6bd306c9ccbbc2'),
    'o7-p9-dynamic-random': ('11fed5dbf5e9da9c19b7e41bd13a102e', '64ba65e760cfbbffaea2fe61a35f3f7f'),
    'o7-p9-static-lru': ('cc65863031e8dc7deaa05f8afcef799e', 'f1152f3f3ff1acbba48f2f7176c0a3ee'),
    'o7-p9-static-fifo': ('cc65863031e8dc7deaa05f8afcef799e', 'c6360c020b896b28cfd80bd4d6e6f785'),
    'o7-p9-static-random': ('cc65863031e8dc7deaa05f8afcef799e', '48fdeec7d5f5bc34b9616b93de681e1f'),
    'o7-p9-no_table-lru': ('4dacafe1702e742f8ae8910d5bf75611', 'ced6361bd50de17325545d58617a6260'),
    'o7-p9-no_table-fifo': ('4dacafe1702e742f8ae8910d5bf75611', 'ced6361bd50de17325545d58617a6260'),
    'o7-p9-no_table-random': ('4dacafe1702e742f8ae8910d5bf75611', 'ced6361bd50de17325545d58617a6260'),
    'o8-p0-dynamic-lru': ('f7f2df574bd2c65363307107275e9b3a', '15e7e0ee795c4a5d43b83ac9298a02df'),
    'o8-p0-dynamic-fifo': ('0a64ffa7b1d48e0eb67436f2f192345d', '8e8ab3dd91920b37e62e8a2bc6871947'),
    'o8-p0-dynamic-random': ('7128655c87130ed6468e83a6362bd329', '0d62afc188e7bc571ce40bd2ddcd948e'),
    'o8-p0-static-lru': ('4d15a9de89642a72d9d32ea3811d52a6', '2e0a4765ea05b00caa9fd90eb7975278'),
    'o8-p0-static-fifo': ('4d15a9de89642a72d9d32ea3811d52a6', '2c569d161b44f8bd8ceae9d4b9c6f1be'),
    'o8-p0-static-random': ('4d15a9de89642a72d9d32ea3811d52a6', '02fd4bd0ee4c043957a99c9581de7955'),
    'o8-p0-no_table-lru': ('396db8ce90e6da3ddd5693249e0e05db', '31f13465d7bf46fbbd00c10c784847cc'),
    'o8-p0-no_table-fifo': ('396db8ce90e6da3ddd5693249e0e05db', '31f13465d7bf46fbbd00c10c784847cc'),
    'o8-p0-no_table-random': ('396db8ce90e6da3ddd5693249e0e05db', '31f13465d7bf46fbbd00c10c784847cc'),
    'o8-p1-dynamic-lru': ('cc6867907962523b8bb48912981e52c9', '3ebfb9e7f9d44a33d27b2153bbf64c9e'),
    'o8-p1-dynamic-fifo': ('9deda64b2113df6d64e8f744a559aaf5', '856cf7b5e9bb9a87861b9c6748ea245f'),
    'o8-p1-dynamic-random': ('623c1954d08068d4225a57f464da0e42', '91a519f8f3062b35d7ada67bbf833235'),
    'o8-p1-static-lru': ('ce369f66345a100d45a9b0107e7d6e4e', '5bce1e2355a37f8390da7e5a47daa836'),
    'o8-p1-static-fifo': ('ce369f66345a100d45a9b0107e7d6e4e', 'd72767c2721bc3260808a3447553d9f2'),
    'o8-p1-static-random': ('ce369f66345a100d45a9b0107e7d6e4e', '8d8b98e66bfb6965c780a85c6313c115'),
    'o8-p1-no_table-lru': ('c108dc7dbf80f6679fe4b60ce7b62756', '6fb1b6271ff800ca5ee6900e46dedd5b'),
    'o8-p1-no_table-fifo': ('c108dc7dbf80f6679fe4b60ce7b62756', '6fb1b6271ff800ca5ee6900e46dedd5b'),
    'o8-p1-no_table-random': ('c108dc7dbf80f6679fe4b60ce7b62756', '6fb1b6271ff800ca5ee6900e46dedd5b'),
    'o8-p9-dynamic-lru': ('612cea983cd0422072409393edd9442c', '64ddca2df30766d9664e0130af696b18'),
    'o8-p9-dynamic-fifo': ('c08b74e98d0f353f6f29a3a2cb096f0b', 'a337af67415d1903f467d9ea5158a122'),
    'o8-p9-dynamic-random': ('bbec03c9525bb10a2b4fa5df8357f82a', '8fe008f645ecc682cddb4e4b7853912b'),
    'o8-p9-static-lru': ('8f83b60e1ef3bc4524298ffbe604ece2', 'e6a5ec7730314bf9848d1b38a4b7c242'),
    'o8-p9-static-fifo': ('8f83b60e1ef3bc4524298ffbe604ece2', '1e3eac018950139cb3294c77cb8bc173'),
    'o8-p9-static-random': ('8f83b60e1ef3bc4524298ffbe604ece2', '322888e6c867bb2320c6e31bec295496'),
    'o8-p9-no_table-lru': ('a2e65fc7729fcc0be849bb3cea3b537b', 'a426ee68d54273f12a424657999e25aa'),
    'o8-p9-no_table-fifo': ('a2e65fc7729fcc0be849bb3cea3b537b', 'a426ee68d54273f12a424657999e25aa'),
    'o8-p9-no_table-random': ('a2e65fc7729fcc0be849bb3cea3b537b', 'a426ee68d54273f12a424657999e25aa'),
}


if __name__ == "__main__":
    print("PINS = {")
    for name in CASES:
        print(f"    {name!r}: {compute(name, 'pure')!r},")
    print("}")
