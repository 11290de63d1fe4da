"""The deployed ZipLine system: encoder/decoder switch programs and the hop tap."""

from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK, ZipLineHeaderSet
from repro.zipline.stats import LinkTap

__all__ = [
    "ZipLineDecoderSwitch",
    "ZipLineEncoderSwitch",
    "ETHERTYPE_RAW_CHUNK",
    "ZipLineHeaderSet",
    "LinkTap",
]
