"""Unit names of traces and distributions.

Import-free, so that the command line can offer the units without loading
``nsim.model``; ``nsim.model`` re-exports them.
"""

UNIT_NS = "ns"
UNIT_GBPS = "gbps"
UNIT_NS_PER_BYTE = "ns_per_byte"
