"""splitmev: trade-splitting optimization, sequencer simulation, and
revert-trace analytics for CEX-DEX arbitrage on fast-finality chains."""

__version__ = "0.1.0"

from .amm_core import *
from .failure_models import *
from .split_optimizer import *
from .sequencer_sim import *
from .fee_accounting import *
from .trace_analysis import *

__all__ = ["__version__", *amm_core.__all__, *failure_models.__all__, *split_optimizer.__all__,
           *sequencer_sim.__all__, *fee_accounting.__all__, *trace_analysis.__all__]
