"""Ethernet PHY substrate: 66-bit PCS blocks, the encoder, and preemption."""

from repro.phy.blocks import (
    BlockType,
    PhyBlock,
    data_block,
    grant_block,
    idle_block,
    mem_single_block,
    mem_start_block,
    notify_block,
    start_block,
    term_block,
)
from repro.phy.encoder import (
    block_count_for_frame,
    block_count_for_message,
    edm_bandwidth_efficiency,
    encode_frame,
    encode_grant,
    encode_memory_message,
    encode_notification,
    mac_bandwidth_efficiency,
)
from repro.phy.preemption import PreemptiveTxMux, memory_latency_blocks

__all__ = [
    "BlockType",
    "PhyBlock",
    "PreemptiveTxMux",
    "block_count_for_frame",
    "block_count_for_message",
    "data_block",
    "edm_bandwidth_efficiency",
    "encode_frame",
    "encode_grant",
    "encode_memory_message",
    "encode_notification",
    "grant_block",
    "idle_block",
    "mac_bandwidth_efficiency",
    "mem_single_block",
    "mem_start_block",
    "memory_latency_blocks",
    "notify_block",
    "start_block",
    "term_block",
]
