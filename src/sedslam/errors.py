"""Exception types shared by the solvers and the file formats."""


class SedSlamError(Exception):
    """Base class for solver and file-format failures.

    Multi-stage pipelines attach the failing stage name via ``stage`` so
    callers can tell which step of a solve went wrong.
    """

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage

    def __str__(self):
        msg = self.args[0] if self.args else ""
        return f"{self.stage}: {msg}" if self.stage else str(msg)


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


class TimestampCollisionError(SedSlamError):
    """Identical timestamps appear in both trajectories being merged."""


class AssociationError(SedSlamError):
    """Too few timestamp-associated pose pairs between two trajectories."""


class MatchFileError(SedSlamError):
    """Malformed two-view match file."""


class TrajectoryFileError(SedSlamError):
    """Malformed trajectory file or depth sidecar."""
