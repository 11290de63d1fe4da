"""Workload generators and trace containers for the evaluation."""

from functools import partial

from repro.workloads.dns import DnsQuery, DnsQueryWorkload, PAPER_DNS_QUERY_BYTES
from repro.workloads.synthetic import PAPER_SYNTHETIC_CHUNKS, SyntheticSensorWorkload
from repro.workloads.thrash import DictionaryThrashWorkload
from repro.workloads.traces import ChunkTrace, TraceStats

__all__ = [
    "DnsQuery",
    "DnsQueryWorkload",
    "DictionaryThrashWorkload",
    "PAPER_DNS_QUERY_BYTES",
    "PAPER_SYNTHETIC_CHUNKS",
    "SyntheticSensorWorkload",
    "ChunkTrace",
    "TraceStats",
    "WORKLOAD_FACTORIES",
]


def _synthetic(chunks, bases, names, order, seed):
    workload = SyntheticSensorWorkload(
        num_chunks=chunks, distinct_bases=bases, order=order, seed=seed
    )
    return workload, workload.bases


def _dns(chunks, bases, names, order, seed):
    workload = DnsQueryWorkload(num_queries=chunks, distinct_names=names, seed=seed)
    return workload, partial(workload.bases, order=order)


def _thrash(chunks, bases, names, order, seed):
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
