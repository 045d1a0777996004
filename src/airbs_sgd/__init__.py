"""Non-cooperative aerial base station placement by stochastic gradient ascent.

Transmitter agents listen to user control packets and independently climb
the gradient of a smooth network-utility surrogate; no agent ever sees
another agent's state. The package bundles the channel model, utility
surrogates, traffic sampling, the per-agent optimizer, a scenario
simulator with a k-means baseline, and reporting/CLI front ends.
"""

from .channel import (
    ChannelParams,
    CoincidentPositionsError,
    FREE_SPACE,
    FreeSpaceChannel,
    Position,
    free_space_power_dbm,
    free_space_power_gradient,
    received_power_matrix,
)
from .utility import (
    UtilityConfig,
    UtilityFamily,
    network_utility,
    network_utility_gradient,
    sigmoid_delta,
    smooth_max_dbm,
    softmax_weights,
    user_utility,
    user_utility_partials,
)
from .traffic import (
    ControlPacket,
    TrafficProfile,
    empirical_utility_estimate,
    make_control_packet,
    sample_recipient,
)
from .navigator import (
    AirBsAgent,
    StepSchedule,
    agent_partial_gradient,
    accumulate,
    apply_update,
    clamp_speed,
    smooth_waypoints,
)
from .simulator import (
    Rect,
    Scenario,
    TrajectoryLog,
    World,
    coverage_map,
    init_scenario,
    run,
    run_replications,
    scenario_from_dict,
    scenario_to_dict,
)
from .baseline import KMeansResult, kmeans_placement
from .report import (
    MetricsReport,
    PlacementMetrics,
    build_metrics_report,
    per_mu_max_power,
    power_histogram,
    render_outputs,
    served_count,
)

__version__ = "0.1.0"
