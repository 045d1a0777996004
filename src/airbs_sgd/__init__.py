"""Non-cooperative aerial base station placement by stochastic gradient ascent.

Transmitter agents listen to user control packets and independently climb
the gradient of a smooth network-utility surrogate; no agent ever sees
another agent's state. The package bundles the channel model, utility
surrogates, traffic sampling, the batched per-agent update, a scenario
simulator with a k-means baseline, and reporting/CLI front ends.
Positions are float arrays whose last axis holds (x, y, z) in meters.

The names below are the ones the README's library example and the demos
use; everything else is reached through its module.
"""

import os as _os

# One BLAS thread unless the user set another count: no kernel here calls a
# threaded BLAS routine, and idle helper threads started with numpy cost CPU.
# Set before numpy is first imported, which reads them once.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

from .channel import ChannelParams, received_power_matrix
from .utility import UtilityConfig, sigmoid_delta, smooth_max_dbm, softmax_weights
from .navigator import StepSchedule
from .simulator import Rect, Scenario, run, run_replications
from .baseline import kmeans_placement
from .report import coverage_map, render_outputs

__version__ = "0.1.0"
