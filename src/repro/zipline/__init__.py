"""The deployed ZipLine system: encoder/decoder switch programs and topology."""

from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.deployment import DeploymentScenario, ZipLineDeployment
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK, ZipLineHeaderSet
from repro.zipline.stats import CompressionSummary, LinkTap, LinkTapRecord

__all__ = [
    "ZipLineDecoderSwitch",
    "DeploymentScenario",
    "ZipLineDeployment",
    "ZipLineEncoderSwitch",
    "ETHERTYPE_RAW_CHUNK",
    "ZipLineHeaderSet",
    "CompressionSummary",
    "LinkTap",
    "LinkTapRecord",
]
