"""2D Gaussian blob summaries of pixel clusters.

A blob is the cluster's spatial mean, 2x2 second-moment covariance (with an
eigenvalue floor so 1-px clusters stay evaluable), mean YUV color, area and a
part label. Blobs evaluate a bivariate normal density and reduce to drawable
ellipses via closed-form 2x2 eigen analysis.
"""

import math
from dataclasses import dataclass

import numpy as np

EPS_REG = 0.25  # px^2 eigenvalue floor
ELLIPSE_SIGMAS = 2.0  # a drawn ellipse's semi-axes, in standard deviations


@dataclass(frozen=True)
class GaussianBlob:
    mu: tuple  # (x, y)
    K: tuple  # ((kxx, kxy), (kxy, kyy)), eigenvalues >= EPS_REG
    color_mean: tuple  # (Y, U, V)
    area: int
    label: str = ""

    def to_dict(self):
        return {
            "label": self.label,
            "mu": [self.mu[0], self.mu[1]],
            "K": [[self.K[0][0], self.K[0][1]], [self.K[1][0], self.K[1][1]]],
            "color": [self.color_mean[0], self.color_mean[1], self.color_mean[2]],
            "area": self.area,
        }


def eig2x2_sym(kxx, kxy, kyy):
    """Eigenvalues (descending) and unit eigenvectors of a symmetric 2x2 matrix."""
    tr = kxx + kyy
    det = kxx * kyy - kxy * kxy
    disc = math.sqrt(max(tr * tr / 4.0 - det, 0.0))
    l1 = tr / 2.0 + disc
    l2 = tr / 2.0 - disc
    if abs(kxy) > 1e-12:
        v1 = (l1 - kyy, kxy)
    elif kxx >= kyy:
        v1 = (1.0, 0.0)
    else:
        v1 = (0.0, 1.0)
    n1 = math.hypot(*v1)
    v1 = (v1[0] / n1, v1[1] / n1)
    v2 = (-v1[1], v1[0])
    return (l1, l2), (v1, v2)


def _floor_eigenvalues(kxx, kxy, kyy):
    """Raise eigenvalues below EPS_REG; exact pass-through when none need it."""
    (l1, l2), (v1, v2) = eig2x2_sym(kxx, kxy, kyy)
    if l2 >= EPS_REG and l1 >= EPS_REG:
        return kxx, kxy, kyy
    f1, f2 = max(l1, EPS_REG), max(l2, EPS_REG)
    kxx = f1 * v1[0] * v1[0] + f2 * v2[0] * v2[0]
    kxy = f1 * v1[0] * v1[1] + f2 * v2[0] * v2[1]
    kyy = f1 * v1[1] * v1[1] + f2 * v2[1] * v2[1]
    return kxx, kxy, kyy


def fit_blob(pixels, frame=None, label=""):
    """Fit a Gaussian blob to a cluster of integer (x, y) pixels.

    The covariance is the population second central moment matrix, from raw
    moments accumulated exactly, with each eigenvalue floored at EPS_REG.
    When a frame is given, color_mean is the mean YUV over the cluster.
    """
    pts = np.asarray(pixels)
    if pts.size == 0:
        raise ValueError("cannot fit a blob to an empty pixel cluster")
    if not np.issubdtype(pts.dtype, np.integer):
        raise ValueError(f"blob pixels must be integer coordinates, got {pts.dtype}")
    pts = pts.reshape(-1, 2)
    n = pts.shape[0]
    xs = pts[:, 0].astype(np.int64)
    ys = pts[:, 1].astype(np.int64)
    sx, sy = int(xs.sum()), int(ys.sum())
    mx, my = sx / n, sy / n
    kxx = int((xs * xs).sum()) / n - mx * mx
    kxy = int((xs * ys).sum()) / n - mx * my
    kyy = int((ys * ys).sum()) / n - my * my
    kxx, kxy, kyy = _floor_eigenvalues(kxx, kxy, kyy)
    if frame is not None:
        color = frame.yuv[ys, xs].astype(np.float64).mean(axis=0)
        color_mean = (float(color[0]), float(color[1]), float(color[2]))
    else:
        color_mean = (0.0, 0.0, 0.0)
    return GaussianBlob(
        mu=(float(mx), float(my)),
        K=((kxx, kxy), (kxy, kyy)),
        color_mean=color_mean,
        area=n,
        label=label,
    )


def blob_density(blob, point):
    """Bivariate normal density at (x, y), in px^-2."""
    (kxx, kxy), (_, kyy) = blob.K
    det = kxx * kyy - kxy * kxy
    dx = point[0] - blob.mu[0]
    dy = point[1] - blob.mu[1]
    # inverse of [[kxx, kxy], [kxy, kyy]] applied to (dx, dy)
    q = (kyy * dx * dx - 2.0 * kxy * dx * dy + kxx * dy * dy) / det
    return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))


def blob_ellipse(blob):
    """Drawable ellipse: center, semi axes ELLIPSE_SIGMAS * sqrt(eigenvalue),
    orientation.

    The orientation is the major eigenvector's angle, normalized to
    (-pi/2, pi/2]; isotropic covariances report 0.
    """
    (kxx, kxy), (_, kyy) = blob.K
    (l1, l2), (v1, _) = eig2x2_sym(kxx, kxy, kyy)
    a = ELLIPSE_SIGMAS * math.sqrt(max(l1, 0.0))
    b = ELLIPSE_SIGMAS * math.sqrt(max(l2, 0.0))
    theta = math.atan2(v1[1], v1[0])
    if theta <= -math.pi / 2.0:
        theta += math.pi
    elif theta > math.pi / 2.0:
        theta -= math.pi
    if abs(l1 - l2) < 1e-12:
        theta = 0.0
    return (blob.mu, (a, b), theta)
