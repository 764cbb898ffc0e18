"""Exception types shared by the solvers and the file formats.

An error's ``stage`` is the solver stage that failed, or ``line N`` (from 1)
of a refused file. Its type's ``exit_code`` is the CLI's exit status for it.
"""

import contextlib


class SedSlamError(Exception):
    """Base class for solver and file-format failures; ``stage`` names the
    solver stage or the file line where one arose."""
    exit_code = 2

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage

    def __str__(self):
        msg = self.args[0] if self.args else ""
        return f"{self.stage}: {msg}" if self.stage else str(msg)


@contextlib.contextmanager
def _staged(stage):
    """Tag a :class:`SedSlamError` raised inside with ``stage`` unless it has one."""
    try:
        yield
    except SedSlamError as exc:
        if exc.stage is None:
            exc.stage = stage
        raise


class BehindCameraError(SedSlamError):
    """A projection was requested for a point with non-positive depth."""


class RankDeficiencyError(SedSlamError):
    """Design matrix of the homogeneous least squares has rank below 8."""


class InsufficientMatchesError(SedSlamError):
    """Fewer than the minimum number of usable (positive-weight) matches."""


class AmbiguityError(SedSlamError):
    """Pose candidates tie on chirality support; no winner can be chosen."""


class TooFewDepthsError(SedSlamError):
    """Not enough valid triangulated depths survive filtering."""


class InsufficientInliersError(SedSlamError):
    """Scale voting found too few inliers; retry with another candidate pair."""
    exit_code = 3


class TimestampCollisionError(SedSlamError):
    """Identical timestamps appear in both trajectories being merged."""


class AssociationError(SedSlamError):
    """Too few timestamp-associated pose pairs between two trajectories."""
    exit_code = 1


class MatchFileError(SedSlamError):
    """Malformed two-view match file."""
    exit_code = 1


class TrajectoryFileError(SedSlamError):
    """Malformed trajectory file or depth sidecar."""
    exit_code = 1
