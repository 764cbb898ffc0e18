"""Geometric optimization core for multi-session SLAM.

Wide-baseline two-view relative pose (weighted 8-point preconditioning plus
Levenberg-Marquardt refinement of the symmetric epipolar distance),
reprojection-error bundle adjustment, and Sim(3) alignment of disjoint
trajectories, validated against synthetic scenes with known ground truth.
"""

from . import errors
from .geom import (
    Intrinsics,
    RelativePose,
    Se3Pose,
    Sim3Transform,
    essential_from_fundamental,
    project,
    skew,
    so3_exp,
    so3_log,
)
from .twoview import (
    AnchorMatchSet,
    SedSolveReport,
    clamp_to_epipolar,
    decompose_essential,
    lm_refine_sed,
    sed_cost,
    sed_jacobian,
    select_by_chirality,
    solve_two_view,
    weighted_eight_point,
)
from .ba import BaReport, Edge, FactorGraph, ba_solve
from .sim3 import (
    JoinCandidate,
    Keyframe,
    ScaleEstimate,
    Trajectory,
    build_sim3,
    estimate_join,
    estimate_scale,
    merge_trajectories,
    triangulated_depths,
)
from .metrics import PoseError, ate_rmse, pose_auc, pose_error
from .synth import NoiseModel, basin_experiment, make_ba_graph, make_trajectory_pair, make_two_view

__version__ = "0.1.0"
