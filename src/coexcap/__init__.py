"""coexcap: capacity models and MAC simulation for Wi-Fi and scheduled
cellular transmitters sharing an unlicensed channel.

The package covers three operating regimes on one channel: direct
coexistence (both contend), dynamic time multiplexing (alternating
windows guarded by CTS-to-self), and dynamic frequency multiplexing
(standard-width subchannels), plus a recommender for the better sharing
approach and a seeded discrete-event simulator that validates the
analytical capacities.
"""

from .coex import (BurstDurations, CoexScenario, Equilibrium, EventProbs,
                   capacity_no_coex, coexistence_throughputs,
                   event_probabilities, solve_equilibrium)
from .errors import (CoexcapError, ConfigError, ConvergenceError,
                     DegenerateBlockingError, EmptyBurstError,
                     InfeasiblePartitionError, InvalidWindowError,
                     UnsupportedBandwidthError)
from .params import (LaaClassProfile, WifiMacProfile, ampdu_limit_bytes,
                     contention_window, laa_class1, laa_class4, load_preset,
                     max_mpdus_per_burst, wifi_default)
from .sharing import (BestDmaResult, CapacityReport, DfmPartition, DtmSchedule,
                      best_dma, cts_downtime, dfm_capacities, dfm_partition,
                      dtm_capacities, effective_channel_usage, windowed_capacity)
from .sim import SimConfig, SimCounts, SimResult, run_simulation

__version__ = "0.1.0"
