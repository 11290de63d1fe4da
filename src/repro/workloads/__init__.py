"""Workload generators and trace containers for the evaluation."""

from repro._lazy import lazy_exports

# Each generator loads its own module on first read: a synthetic run
# does not load the DNS name pool, the IP/UDP builder or the pcap writer.
__getattr__, __dir__, _exported = lazy_exports(
    __name__,
    {
        "dns": ("DnsQuery", "DnsQueryWorkload", "PAPER_DNS_QUERY_BYTES"),
        "synthetic": ("PAPER_SYNTHETIC_CHUNKS", "SyntheticSensorWorkload"),
        "thrash": ("DictionaryThrashWorkload",),
        "traces": ("ChunkTrace", "TraceStats"),
    },
)

__all__ = ["DNS_CHUNK_ORDER", "WORKLOAD_FACTORIES", *_exported]

#: The Hamming order of 32-byte chunks, the size of every DNS chunk: no
#: other order's parser accepts one (a topology spec refuses a ``dns``
#: flow at any other order).
DNS_CHUNK_ORDER = 8


def _synthetic(chunks, bases, names, order, seed):
    from repro.workloads.synthetic import SyntheticSensorWorkload

    workload = SyntheticSensorWorkload(
        num_chunks=chunks, distinct_bases=bases, order=order, seed=seed
    )
    return workload, workload.bases


def _dns(chunks, bases, names, order, seed):
    from repro.workloads.dns import DnsQueryWorkload

    # The spec refuses a DNS flow at any order but DNS_CHUNK_ORDER.
    workload = DnsQueryWorkload(num_queries=chunks, distinct_names=names, seed=seed)
    return workload, workload.bases


def _thrash(chunks, bases, names, order, seed):
    from repro.workloads.thrash import DictionaryThrashWorkload

    workload = DictionaryThrashWorkload(
        num_chunks=chunks,
        distinct_bases=bases,
        order=order,
        # A quarter-trace phase with a working-set migration keeps
        # the control plane installing for the whole run.
        phase_chunks=max(1, chunks // 4),
        phase_shift=max(1, bases // 4),
        seed=seed,
    )
    return workload, workload.bases


#: ``workload`` name → ``factory(chunks, bases, names, order, seed)``, which
#: returns the generator and the callable listing its distinct bases (what
#: the static scenario preloads).  The keys, in this order, are the run
#: parameter's choices (:data:`repro.topology.spec.WORKLOADS`).
WORKLOAD_FACTORIES = {"synthetic": _synthetic, "dns": _dns, "thrash": _thrash}
