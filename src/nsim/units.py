"""Names that the command line offers as choices: trace and distribution
units and price labels. Import-free, so that the command line can offer them
without loading ``nsim.model`` (which re-exports the units) or ``nsim.cost``.
"""

UNIT_NS = "ns"
UNIT_GBPS = "gbps"
UNIT_NS_PER_BYTE = "ns_per_byte"

PRICE_LABELS = ("committed", "on_demand")
