"""Packet, flow and addressing substrate shared by the simulator and RLIR."""

from .._exports import lazy_exports

_EXPORTS = {
    "Prefix": "addressing",
    "PrefixTrie": "addressing",
    "int_to_ip": "addressing",
    "ip_to_int": "addressing",
    "MAX_MARK": "headers",
    "MARK_UNSET": "headers",
    "clear_mark": "headers",
    "decode_mark": "headers",
    "encode_mark": "headers",
    "Packet": "packet",
    "PacketKind": "packet",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
