"""Layer-2 framing substrate: MAC addresses, Ethernet frames, ZipLine packets, pcap."""

from repro._lazy import lazy_exports

# Each name loads its own submodule on first read: framing a packet
# does not load the pcap reader and writer.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "checksum": ("ethernet_fcs", "internet_checksum"),
        "ethernet": (
            "ETHERNET_FCS_BYTES",
            "ETHERNET_HEADER_BYTES",
            "ETHERNET_IFG_BYTES",
            "ETHERNET_MIN_FRAME_BYTES",
            "ETHERNET_PREAMBLE_BYTES",
            "EthernetFrame",
            "EtherType",
            "frame_wire_bytes",
        ),
        "mac": ("BROADCAST", "ZERO", "MacAddress"),
        "packets": ("PacketKind", "ZipLinePacketCodec"),
        "pcap": ("PcapPacket", "PcapReader", "PcapWriter", "write_pcap"),
    },
)
