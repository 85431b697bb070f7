"""Switch substrates: the EDM PHY switch and the baseline L2 pipeline latency."""

from repro.switchfab.failover import (
    DuplicateSuppressor,
    FailoverController,
    MirroredSender,
)
from repro.switchfab.l2switch import (
    CROSSBAR_NS,
    MATCH_ACTION_NS,
    PACKET_MANAGER_NS,
    PARSING_NS,
    PIPELINE_NS,
)
from repro.switchfab.switch import EdmSwitch

__all__ = [
    "CROSSBAR_NS",
    "DuplicateSuppressor",
    "EdmSwitch",
    "FailoverController",
    "MirroredSender",
    "MATCH_ACTION_NS",
    "PACKET_MANAGER_NS",
    "PARSING_NS",
    "PIPELINE_NS",
]
