"""Synthetic campus-DNS workload (stand-in for the paper's real trace).

The paper replays "a day of DNS queries at a 4000 users university campus"
(the public Mendeley dataset by Singh et al.), filtered to "only keep
queries of 34 B going to the main DNS resolver of the campus, excluding the
DNS transaction identifier which is a random number".

The real capture is not redistributable here, so this module generates a
statistically similar trace (documented substitution in DESIGN.md):

* a pool of campus-like fully qualified domain names whose DNS encoding
  makes every query message exactly 34 bytes long (12-byte header, 18-byte
  QNAME, 4 bytes of QTYPE/QCLASS);
* query popularity follows a Zipf distribution — a few names (the campus
  portal, mail, the LMS, OS update hosts) dominate, a long tail appears
  rarely, which is what campus resolvers see;
* transaction identifiers are uniformly random, exactly the field the paper
  excludes from compression.

The 32-byte chunk replayed through ZipLine is the query message *minus* the
2-byte transaction identifier — the same filtering step the paper applies —
so the chunk size matches the paper's 256-bit configuration exactly.
"""

from __future__ import annotations

import random
import string
import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.exceptions import WorkloadError
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.ip import build_udp_packet
from repro.net.mac import MacAddress
from repro.workloads.traces import ChunkTrace

__all__ = [
    "DNS_CHUNK_ORDER",
    "DnsQuery",
    "DnsQueryWorkload",
    "PAPER_DNS_QUERY_BYTES",
    "RESOLVER_IP",
]

#: Size of the filtered queries in the paper's dataset.
PAPER_DNS_QUERY_BYTES = 34

#: The Hamming order of 32-byte chunks, the size of every DNS chunk: no
#: other order's parser accepts one.
DNS_CHUNK_ORDER = 8

#: Skew of the name popularity (1.0–1.2 is typical for DNS).
ZIPF_EXPONENT = 1.1

#: Fraction of queries using QTYPE AAAA instead of A.
AAAA_FRACTION = 0.15

#: Addressing of the full packets: the campus resolver, and clients drawn
#: from 10.20.0.0/16.
RESOLVER_IP = "10.1.1.53"
CLIENT_MAC = MacAddress("02:aa:00:00:00:01")
RESOLVER_MAC = MacAddress("02:aa:00:00:00:53")

#: QTYPE values used by the generator (A dominates, some AAAA).
_QTYPE_A = 1
_QTYPE_AAAA = 28
_QCLASS_IN = 1
_DNS_PORT = 53

#: Standard-query flags (recursion desired).
_QUERY_FLAGS = 0x0100

#: The header after the transaction identifier: flags, one question, no
#: answer, authority or additional records.
_HEADER_AFTER_ID = struct.pack(">HHHHH", _QUERY_FLAGS, 1, 0, 0, 0)

#: Bytes of a chunk fixed by its name: the header after the transaction
#: identifier (10) and the QNAME (18 for a generated name).
_NAME_PREFIX_BYTES = 28

#: The chunk's last 4 bytes (QTYPE, QCLASS), indexed by "is it AAAA".
_QUESTION_TAILS = (
    struct.pack(">HH", _QTYPE_A, _QCLASS_IN),
    struct.pack(">HH", _QTYPE_AAAA, _QCLASS_IN),
)


def _encode_qname(name: str) -> bytes:
    """DNS label encoding of a dotted name.

    Called once per pool name, to build the chunk prefixes, and by
    :meth:`DnsQuery.message`; nothing per generated chunk calls it, so it
    is not memoised (a cache of every name of a 20,000-name pool showed as
    +3 MB of peak RSS).
    """
    encoded = bytearray()
    for label in name.split("."):
        if not label or len(label) > 63:
            raise WorkloadError(f"invalid DNS label in {name!r}")
        encoded.append(len(label))
        encoded.extend(label.encode("ascii"))
    encoded.append(0)
    return bytes(encoded)


@dataclass(frozen=True)
class DnsQuery:
    """One generated DNS query."""

    transaction_id: int
    name: str
    qtype: int

    def message(self) -> bytes:
        """The full DNS query message (34 bytes for the generated names)."""
        header = struct.pack(
            ">HHHHHH", self.transaction_id, _QUERY_FLAGS, 1, 0, 0, 0
        )
        question = _encode_qname(self.name) + struct.pack(">HH", self.qtype, _QCLASS_IN)
        return header + question

    def chunk(self) -> bytes:
        """The message with the transaction identifier removed (32 bytes).

        This is the value ZipLine compresses — the paper's filtering step
        excludes the random transaction identifier.
        """
        return self.message()[2:]

class DnsQueryWorkload:
    """Generate a Zipf-skewed stream of 34-byte DNS queries.

    Parameters
    ----------
    num_queries:
        Number of queries to generate (the paper's filtered day of traffic is
        on the order of 7 × 10^5 queries; the default is scaled down).
    distinct_names:
        Size of the queried-name pool.
    seed:
        RNG seed for deterministic generation.
    """

    def __init__(
        self,
        num_queries: int = 100_000,
        distinct_names: int = 400,
        seed: int = 2016,
    ):
        if num_queries <= 0:
            raise WorkloadError(f"num_queries must be positive, got {num_queries}")
        if distinct_names <= 0:
            raise WorkloadError(f"distinct_names must be positive, got {distinct_names}")
        self.num_queries = num_queries
        self.distinct_names = distinct_names
        self.seed = seed
        self._names: Optional[List[str]] = None
        self._prefixes: Optional[bytes] = None
        self._cumulative: Optional[List[float]] = None

    # -- name pool --------------------------------------------------------------

    _DEPARTMENTS = (
        "cs", "ee", "me", "ce", "bio", "phy", "chm", "mat", "law", "med",
        "lib", "adm", "hr", "fin", "net", "it",
    )
    _SERVICES = (
        "www", "mail", "lms", "vpn", "git", "wiki", "sso", "cdn", "ntp",
        "erp", "db", "api", "app", "fs", "dc", "px",
    )

    def names(self) -> List[str]:
        """The pool of queried names (deterministic for a given seed).

        Every name is exactly 16 characters long so its DNS encoding is the
        18 bytes needed for a 34-byte query message.
        """
        if self._names is not None:
            return self._names
        choice = random.Random(self.seed).choice
        digits = string.digits
        pool: List[str] = []
        seen = set()
        while len(pool) < self.distinct_names:
            service = choice(self._SERVICES)
            department = choice(self._DEPARTMENTS)
            # Layout: <service+digits>.<department>.uni.in — pad the host
            # label with digits so the full name is exactly 16 characters.
            suffix = f".{department}.uni.in"
            # The longest suffix (11) leaves room for the longest service
            # (4), and 16 characters in 4 labels encode to 18 bytes.
            digits_needed = 16 - len(suffix) - len(service)
            name = service + "".join([choice(digits) for _ in range(digits_needed)]) + suffix
            if name in seen:
                continue
            seen.add(name)
            pool.append(name)
        self._names = pool
        return pool

    def _name_prefixes(self) -> bytes:
        """The first 28 chunk bytes of every pool name, packed in pool order.

        Name ``i`` owns bytes ``28 * i`` to ``28 * i + 28``: the header after
        the transaction identifier, then the QNAME.  One buffer, not an
        object per name.
        """
        if self._prefixes is None:
            self._prefixes = b"".join(
                _HEADER_AFTER_ID + _encode_qname(name) for name in self.names()
            )
        return self._prefixes

    def _zipf_cumulative(self) -> List[float]:
        """Cumulative Zipf weights over the name pool."""
        if self._cumulative is not None:
            return self._cumulative
        weights = [1.0 / ((rank + 1) ** ZIPF_EXPONENT) for rank in range(self.distinct_names)]
        total = sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        self._cumulative = cumulative
        return cumulative

    # -- query generation ------------------------------------------------------------

    def _draws(self, rng: random.Random, count: int) -> Iterator[Tuple[bool, int, int]]:
        """``(is_aaaa, transaction_id, name_index)`` of ``count`` queries.

        The one statement of the draw order, three draws per query:
        ``random()`` picks the qtype, ``getrandbits(16)`` the transaction
        identifier, then ``random()`` the name on the Zipf table.
        """
        random_ = rng.random
        getrandbits = rng.getrandbits
        aaaa_fraction = AAAA_FRACTION
        cumulative = self._zipf_cumulative()
        # The last entry is the catch-all: the search stops one short of it.
        last = len(cumulative) - 1
        for _ in range(count):
            yield (
                random_() < aaaa_fraction,
                getrandbits(16),
                bisect_left(cumulative, random_(), 0, last),
            )

    def _query_draws(self, num_queries: Optional[int]) -> Iterator[Tuple[bool, int, int]]:
        """The draws of the workload's queries (``num_queries`` overrides the count)."""
        count = self.num_queries if num_queries is None else num_queries
        if count <= 0:
            raise WorkloadError(f"query count must be positive, got {count}")
        return self._draws(random.Random(self.seed + 1), count)

    def iter_queries(self, num_queries: Optional[int] = None) -> Iterator[DnsQuery]:
        """Lazily generate queries."""
        draws = self._query_draws(num_queries)
        names = self.names()
        for is_aaaa, transaction_id, index in draws:
            yield DnsQuery(
                transaction_id=transaction_id,
                name=names[index],
                qtype=_QTYPE_AAAA if is_aaaa else _QTYPE_A,
            )

    def bases(self) -> List[int]:
        """Distinct bases of the query chunks, in first-appearance order.

        The order the control plane's identifier pool would assign them in
        — the contract static-table preloading relies on.  (The synthetic
        workload precomputes its bases; DNS chunks are derived, so the
        bases are recovered by splitting each chunk at
        :data:`DNS_CHUNK_ORDER`, the one order whose chunks are 32 bytes.)
        """
        from repro.core.transform import GDTransform

        split = GDTransform(order=DNS_CHUNK_ORDER).split
        seen: dict = {}
        # The first chunk carrying a basis is also the first distinct one
        # carrying it, so splitting each distinct chunk once keeps the order.
        for chunk in dict.fromkeys(self.iter_chunks()):
            seen.setdefault(split(chunk).basis, None)
        return list(seen)

    def iter_chunks(self, num_queries: Optional[int] = None) -> Iterator[bytes]:
        """Lazily generate the 32-byte chunks ZipLine compresses (txid removed).

        Shared generator interface with
        :meth:`~repro.workloads.synthetic.SyntheticSensorWorkload.iter_chunks`,
        used by the streaming trace sources in :mod:`repro.replay`.  Each is
        :meth:`DnsQuery.chunk` of the matching :meth:`iter_queries` query,
        sliced from the packed name prefixes plus the qtype's tail.
        """
        draws = self._query_draws(num_queries)
        prefixes = self._name_prefixes()
        tails = _QUESTION_TAILS
        for is_aaaa, _, index in draws:
            start = index * _NAME_PREFIX_BYTES
            yield prefixes[start : start + _NAME_PREFIX_BYTES] + tails[is_aaaa]

    def chunks(self, num_queries: Optional[int] = None) -> List[bytes]:
        """The 32-byte chunks ZipLine compresses (txid removed)."""
        return list(self.iter_chunks(num_queries))

    def trace(self, num_queries: Optional[int] = None, name: str = "dns") -> ChunkTrace:
        """A :class:`ChunkTrace` of the filtered queries."""
        return ChunkTrace(self.chunks(num_queries), name=name)

    def query_bytes(self, num_queries: Optional[int] = None) -> int:
        """Total size of the unfiltered query messages (34 bytes each)."""
        count = self.num_queries if num_queries is None else num_queries
        return count * PAPER_DNS_QUERY_BYTES

    # -- full packets (pcap realism) ----------------------------------------------------

    def packets(self, num_queries: Optional[int] = None) -> List[bytes]:
        """Full Ethernet/IPv4/UDP/DNS frames, as a campus capture would contain."""
        rng = random.Random(self.seed + 2)
        frames: List[bytes] = []
        for query in self.iter_queries(num_queries):
            client_ip = f"10.20.{rng.randrange(1, 255)}.{rng.randrange(1, 255)}"
            packet = build_udp_packet(
                source_ip=client_ip,
                destination_ip=RESOLVER_IP,
                source_port=rng.randrange(1024, 65535),
                destination_port=_DNS_PORT,
                payload=query.message(),
                identification=rng.getrandbits(16),
            )
            frame = EthernetFrame(
                destination=RESOLVER_MAC,
                source=CLIENT_MAC,
                ethertype=EtherType.IPV4,
                payload=packet,
            )
            frames.append(frame.to_bytes())
        return frames
