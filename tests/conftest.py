import numpy as np
import pytest
from hypothesis import settings

from sedslam.geom import Intrinsics, RelativePose

# Every property test runs the same examples on every run, with no time
# limit per example and no example database; tests set only max_examples.
settings.register_profile("sedslam", deadline=None, derandomize=True, database=None)
settings.load_profile("sedslam")


def lookat_rotation(center, target, up=(0.0, 1.0, 0.0)):
    """World-from-camera rotation, built independently of the library."""
    z = np.asarray(target, dtype=float) - np.asarray(center, dtype=float)
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(up, dtype=float), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return np.stack([x, y, z], axis=1)


def pinhole(points, k):
    """Reference pinhole projection written out longhand."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.stack([k.fx * points[:, 0] / points[:, 2] + k.cx,
                     k.fy * points[:, 1] / points[:, 2] + k.cy], axis=1)


class HandScene:
    """Small two-view scene with all quantities computed longhand.

    Camera 1 sits at the origin; camera 2 is placed on a unit baseline and
    looks back at the point cloud. Used as the ground-truth oracle for the
    epipolar and triangulation tests.
    """

    def __init__(self, seed=0, n=60, k=None):
        rng = np.random.default_rng(seed)
        self.k = k or Intrinsics(256.0, 256.0, 256.0, 256.0)
        center2 = np.array([0.8, -0.3, 0.2])
        center2 /= np.linalg.norm(center2)
        r2wc = lookat_rotation(center2, [0.0, 0.0, 2.5])
        self.rotation = r2wc.T
        t = -r2wc.T @ center2
        self.baseline = float(np.linalg.norm(t))
        self.pose = RelativePose(self.rotation, t / self.baseline)
        self.t_metric = t

        pts = []
        while len(pts) < n:
            p = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                          rng.uniform(1.5, 4.0)])
            q = self.rotation @ p + t
            if q[2] <= 0.1:
                continue
            u1 = pinhole(p, self.k)[0]
            u2 = pinhole(q, self.k)[0]
            if np.all(u1 > 20) and np.all(u1 < 492) and np.all(u2 > 20) and np.all(u2 < 492):
                pts.append(p)
        self.points = np.array(pts)
        self.points2 = self.points @ self.rotation.T + t
        self.pixels1 = pinhole(self.points, self.k)
        self.pixels2 = pinhole(self.points2, self.k)


@pytest.fixture(scope="session")
def hand_scene():
    return HandScene()
