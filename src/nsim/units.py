"""Names that the command line offers as choices: trace and distribution
units, price labels and the collectives of ``gen compapp``. Import-free, so
that the command line can offer them without loading ``nsim.model`` (which
re-exports the units), ``nsim.cost`` or ``nsim.goal``.
"""

UNIT_NS = "ns"
UNIT_GBPS = "gbps"
UNIT_NS_PER_BYTE = "ns_per_byte"

PRICE_LABELS = ("committed", "on_demand")

COMPAPP_PATTERNS = ("dissemination", "ring")
