"""Layer-2 framing substrate: MAC addresses, Ethernet frames, ZipLine packets, pcap."""

from repro.net.checksum import ethernet_fcs, internet_checksum
from repro.net.ethernet import (
    ETHERNET_FCS_BYTES,
    ETHERNET_HEADER_BYTES,
    ETHERNET_IFG_BYTES,
    ETHERNET_MIN_FRAME_BYTES,
    ETHERNET_PREAMBLE_BYTES,
    EthernetFrame,
    EtherType,
    frame_wire_bytes,
)
from repro.net.mac import BROADCAST, ZERO, MacAddress
from repro.net.packets import PacketKind, ZipLinePacketCodec
from repro.net.pcap import PcapPacket, PcapReader, PcapWriter, write_pcap

__all__ = [
    "ethernet_fcs",
    "internet_checksum",
    "ETHERNET_FCS_BYTES",
    "ETHERNET_HEADER_BYTES",
    "ETHERNET_IFG_BYTES",
    "ETHERNET_MIN_FRAME_BYTES",
    "ETHERNET_PREAMBLE_BYTES",
    "EthernetFrame",
    "EtherType",
    "frame_wire_bytes",
    "BROADCAST",
    "ZERO",
    "MacAddress",
    "PacketKind",
    "ZipLinePacketCodec",
    "PcapPacket",
    "PcapReader",
    "PcapWriter",
    "write_pcap",
]
