"""Baseline layer-2 switch pipeline latency (Table 1, §2.4 limitation 4).

The forwarding pipeline latency and its breakdown come straight from the
paper's Table 1 caption for a switch programmed with a single exact-match
table: parsing 87 ns, match-action + lookup 202 ns, packet manager 93 ns,
crossbar 18 ns — 400 ns total.  The baseline fabrics charge this latency
per switch traversal.
"""

#: Table 1's pipeline breakdown, in nanoseconds.
PARSING_NS = 87.0
MATCH_ACTION_NS = 202.0
PACKET_MANAGER_NS = 93.0
CROSSBAR_NS = 18.0

#: Total L2 forwarding pipeline latency (Table 1: 400 ns per traversal).
PIPELINE_NS = PARSING_NS + MATCH_ACTION_NS + PACKET_MANAGER_NS + CROSSBAR_NS
