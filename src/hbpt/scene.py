"""Background scene model: per-pixel YUV mean/variance, deviation detection,
and exponential adaptation of pixels not covered by the person. The model
is held in float32. Learning, detection and adaptation each run block by
block over the frame's pixels, so none makes a temporary of frame size.

Frame, mask and model sizes and ``scene.alpha`` are checked where they
enter the run (as frames are decoded, and in ``config.check_ranges``).
"""

from dataclasses import dataclass

import numpy as np

# Pixels per block of the full-frame passes: a block's temporaries (192 KB
# each in float32, 384 KB in float64) stay in cache from one numpy op to the
# next.
_BLOCK_PIXELS = 16384


@dataclass
class SceneModel:
    mean: np.ndarray  # (h, w, 3) float32
    var: np.ndarray  # (h, w, 3) float32, floored at scene.var_floor

    def __post_init__(self):
        # update_scene writes through (h*w, 3) views of these two arrays
        self.mean = np.ascontiguousarray(self.mean, dtype=np.float32)
        self.var = np.ascontiguousarray(self.var, dtype=np.float32)

    @property
    def height(self):
        return self.mean.shape[0]

    @property
    def width(self):
        return self.mean.shape[1]


@dataclass
class ForegroundMask:
    """What ``detect_foreground`` returns; ``perfbench/child.py`` reads ``.bits``."""

    bits: np.ndarray  # (h, w) bool


def learn_scene(frames, var_floor):
    """Accumulate per-pixel mean and population variance over person-free
    frames, in float64 from exact integer sums, and round both once to float32.

    Only the frames' YUV rasters are read. The work runs block by block over
    ``_BLOCK_PIXELS`` pixels, every frame's block summed before the next block
    starts, and each block's sums are turned into the model's float32 arrays
    at once, so no array of frame size is made beside the model's two.
    """
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames to learn a scene, got {len(frames)}")
    w, h = frames[0].width, frames[0].height
    # (h*w, 3) views of the frames' YUV rasters and of the model's arrays
    xs = [f.yuv.reshape(-1, 3) for f in frames]
    model = SceneModel(
        mean=np.empty((h, w, 3), np.float32), var=np.empty((h, w, 3), np.float32)
    )
    mean, var = model.mean.reshape(-1, 3), model.var.reshape(-1, 3)
    # Exact sums of the uint8 values and their squares, each in the smallest
    # unsigned type that holds it. Every sum is below 2**53, so it converts
    # to float64 exactly, and mean and var are what a float64 accumulation
    # gives until the final operations round them to float32.
    rows = min(_BLOCK_PIXELS, h * w)
    acc = np.empty((rows, 3), dtype=np.min_scalar_type(len(frames) * 255))
    acc2 = np.empty((rows, 3), dtype=np.min_scalar_type(len(frames) * 255**2))
    sq = np.empty((rows, 3), dtype=np.uint16)  # 255**2 fits
    m = np.empty((rows, 3))  # float64 mean, then mean^2
    v = np.empty_like(m)  # float64 var
    n, floor = float(len(frames)), np.float32(var_floor)
    for s in range(0, h * w, _BLOCK_PIXELS):
        e = min(s + _BLOCK_PIXELS, h * w)
        ab, a2b, sqb = acc[: e - s], acc2[: e - s], sq[: e - s]
        mb, vb = m[: e - s], v[: e - s]
        ab.fill(0)
        a2b.fill(0)
        for x in xs:
            xb = x[s:e]
            ab += xb
            np.multiply(xb, xb, out=sqb, dtype=np.uint16)
            a2b += sqb
        np.divide(ab, n, out=mb)
        np.divide(a2b, n, out=vb)
        mean[s:e] = mb
        mb *= mb
        vb -= mb
        # Rounding is monotonic, so the maximum of the values rounded to
        # float32 is the float64 maximum rounded to float32.
        np.maximum(vb, floor, out=var[s:e], dtype=np.float32)
    return model


def detect_foreground(model, frame, tau):
    """Flag pixels whose squared Mahalanobis distance over Y,U,V exceeds tau^2.

    The distance is computed in float32, block by block, with the operations
    and the channel order of one full-frame pass, and is compared with tau^2
    rounded once to float32.
    """
    x = frame.yuv.reshape(-1, 3)
    mean = model.mean.reshape(-1, 3)
    var = model.var.reshape(-1, 3)
    bits = np.empty(x.shape[0], dtype=bool)
    q = np.empty((min(_BLOCK_PIXELS, x.shape[0]), 3), np.float32)  # d, d*d, d*d/var
    dist2 = np.empty(q.shape[0], np.float32)
    tau2 = np.float32(tau * tau)
    for s in range(0, x.shape[0], _BLOCK_PIXELS):
        e = min(s + _BLOCK_PIXELS, x.shape[0])
        qb, db = q[: e - s], dist2[: e - s]
        np.subtract(x[s:e], mean[s:e], out=qb)
        qb *= qb
        qb /= var[s:e]
        np.add(qb[:, 0], qb[:, 1], out=db)  # the order of np.sum(q, axis=1)
        db += qb[:, 2]
        np.greater(db, tau2, out=bits[s:e])
    return ForegroundMask(bits=bits.reshape(model.height, model.width))


def update_scene(model, frame, fg, alpha, var_floor):
    """Blend the pixels outside the bool mask ``fg`` into the model in place.

    mean <- (1-a)*mean + a*x, var <- (1-a)*var + a*(x-mean)^2, then the
    variance floor ``var_floor`` is re-applied, all in float32: ``a``, ``1-a``
    (computed in float64) and the floor are each rounded once to float32.
    ``model.mean`` and ``model.var`` are updated in place over the whole frame,
    block by block, and the foreground pixels' values, saved beforehand, are
    written back, so they are left untouched.
    """
    rows = np.flatnonzero(fg)
    if rows.size == fg.size:
        return model
    # (h*w, 3) views of the model's C-contiguous arrays
    mean = model.mean.reshape(-1, 3)
    var = model.var.reshape(-1, 3)
    saved_mean = np.take(mean, rows, axis=0)
    saved_var = np.take(var, rows, axis=0)
    x = frame.yuv.reshape(-1, 3)
    d = np.empty((min(_BLOCK_PIXELS, x.shape[0]), 3), np.float32)  # x, then x - mean
    ad = np.empty_like(d)  # a*x, then (a*d)*d
    a, keep, floor = np.float32(alpha), np.float32(1.0 - alpha), np.float32(var_floor)
    for s in range(0, x.shape[0], _BLOCK_PIXELS):
        e = min(s + _BLOCK_PIXELS, x.shape[0])
        db, adb, mb, vb = d[: e - s], ad[: e - s], mean[s:e], var[s:e]
        np.copyto(db, x[s:e])
        np.multiply(db, a, out=adb)
        mb *= keep
        mb += adb
        db -= mb
        np.multiply(db, a, out=adb)
        adb *= db
        vb *= keep
        vb += adb
        np.maximum(vb, floor, out=vb)
    mean[rows] = saved_mean
    var[rows] = saved_var
    return model
