"""Tests for the DNS query workload."""

import pytest

from repro.exceptions import WorkloadError
from repro.net.ip import Ipv4Header, UdpHeader
from repro.net.ethernet import EthernetFrame, EtherType
from repro.workloads.dns import (
    PAPER_DNS_QUERY_BYTES,
    RESOLVER_IP,
    DnsQuery,
    DnsQueryWorkload,
)


class TestDnsQuery:
    def test_message_is_exactly_34_bytes(self):
        workload = DnsQueryWorkload(num_queries=10, distinct_names=20)
        for query in list(workload.iter_queries()):
            assert len(query.message()) == PAPER_DNS_QUERY_BYTES

    def test_chunk_is_message_without_transaction_id(self):
        workload = DnsQueryWorkload(num_queries=5, distinct_names=20)
        for query in list(workload.iter_queries()):
            message = query.message()
            chunk = query.chunk()
            assert len(chunk) == 32
            assert chunk == message[2:]

    def test_message_layout(self):
        """Header (id, RD flag, one question), label-encoded QNAME, QTYPE, QCLASS IN."""
        query = DnsQuery(transaction_id=0x1234, name="ab.c", qtype=28)
        assert query.message() == (
            b"\x12\x34\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
            b"\x02ab\x01c\x00"
            b"\x00\x1c\x00\x01"
        )

    def test_invalid_label(self):
        bad = DnsQuery(transaction_id=1, name="a..b", qtype=1)
        with pytest.raises(WorkloadError):
            bad.message()


class TestWorkload:
    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            DnsQueryWorkload(num_queries=0)
        with pytest.raises(WorkloadError):
            DnsQueryWorkload(distinct_names=0)

    def test_name_pool_properties(self):
        workload = DnsQueryWorkload(num_queries=10, distinct_names=50)
        names = workload.names()
        assert len(names) == 50
        assert len(set(names)) == 50
        assert all(len(name) == 16 for name in names)

    def test_deterministic_generation(self):
        first = DnsQueryWorkload(num_queries=100, distinct_names=30, seed=3)
        second = DnsQueryWorkload(num_queries=100, distinct_names=30, seed=3)
        assert first.chunks() == second.chunks()

    def test_transaction_ids_vary_but_chunks_do_not_depend_on_them(self):
        workload = DnsQueryWorkload(num_queries=200, distinct_names=1, seed=1)
        queries = list(workload.iter_queries())
        transaction_ids = {query.transaction_id for query in queries}
        assert len(transaction_ids) > 50
        chunk_variants = {query.chunk() for query in queries}
        # one name, at most two qtypes -> at most two distinct chunks
        assert len(chunk_variants) <= 2

    def test_zipf_skew_makes_popular_names_dominate(self):
        workload = DnsQueryWorkload(
            num_queries=2000, distinct_names=100, seed=2
        )
        names = [query.name for query in workload.iter_queries()]
        most_common = max(set(names), key=names.count)
        assert names.count(most_common) > 2000 / 100 * 3

    def test_trace_and_query_bytes(self):
        workload = DnsQueryWorkload(num_queries=500, distinct_names=40)
        trace = workload.trace()
        assert len(trace) == 500
        assert trace.chunk_bytes == 32
        assert workload.query_bytes() == 500 * 34

    def test_distinct_chunks_bounded_by_name_pool(self):
        workload = DnsQueryWorkload(num_queries=1000, distinct_names=40, seed=5)
        stats = workload.trace().stats()
        assert stats.distinct_chunks <= 40 * 2  # A and AAAA variants


class TestFullPackets:
    def test_packets_are_valid_ethernet_ip_udp_dns(self):
        workload = DnsQueryWorkload(num_queries=20, distinct_names=10)
        packets = workload.packets()
        assert len(packets) == 20
        for raw in packets:
            frame = EthernetFrame.from_bytes(raw)
            assert frame.ethertype == EtherType.IPV4
            ipv4, datagram = Ipv4Header.from_bytes(frame.payload)
            udp, payload = UdpHeader.from_bytes(datagram)
            assert ipv4.destination == RESOLVER_IP
            assert udp.destination_port == 53
            assert len(payload) == 34
