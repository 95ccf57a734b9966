"""Person blob detection and tracking.

The tracker moves the person's last window by mean shift over the
backprojected reference histogram and fuses the result with the largest
foreground component. The torso disc is seeded from the tracked person blob.
"""

from dataclasses import dataclass

import numpy as np

from .maskops import foreground_box

N_BINS = 16  # joint 4x4 quantization of (U, V)
MEAN_SHIFT_MAX_ITER = 20  # mean-shift recentring steps per call at most
# the tracked window and the person component are fused when their boxes'
# IoU exceeds this; otherwise the window stands alone
FUSION_IOU_GATE = 0.3


@dataclass
class PersonBlob:
    bbox: tuple  # (x, y, w, h)
    centroid: tuple  # (x, y)
    area: int
    ref_hist: np.ndarray  # (16,) normalized UV histogram
    confidence: float = 1.0
    velocity: tuple = (0.0, 0.0)


@dataclass
class TorsoDisc:
    center: tuple  # (x, y)
    radius: float


# ---------------------------------------------------------------------------
# histograms

def hist16_of_bins(bins):
    """Normalized 16-bin histogram of a flat array of bin indices."""
    counts = np.bincount(bins.ravel(), minlength=N_BINS)[:N_BINS]
    total = counts.sum()
    if total == 0:
        raise ValueError("histogram over an empty pixel set")
    return counts.astype(np.float64) / total


def color_hist16(frame, rect):
    """Normalized 16-bin joint UV histogram of the pixels inside rect, which
    is non-empty and inside the frame (``config.check_box``, ``_clip_rect``)."""
    x, y, w, h = (int(v) for v in rect)
    return hist16_of_bins(frame.uv_bins[y : y + h, x : x + w])


def back_project(frame, hist):
    """Weight image: each pixel takes its UV bin's histogram value."""
    hist = np.asarray(hist, dtype=np.float64)
    if hist.shape != (N_BINS,) or abs(hist.sum() - 1.0) > 1e-6:
        raise ValueError("backprojection needs a normalized 16-bin histogram")
    return hist.take(frame.uv_bins)


# ---------------------------------------------------------------------------
# detection

def detect_person(component, silhouette, frame, min_area):
    """Promote the person component to the person blob when its area reaches
    ``min_area``.

    ``component`` and ``silhouette`` are the person component's
    ``ComponentStats`` and pixel mask as ``maskops.refine_mask`` returns
    them: the largest component of the refined mask, or None when there is
    none.
    """
    if component is None or component.area < min_area:
        return None
    bins = frame.uv_bins[silhouette]
    return PersonBlob(
        bbox=component.bbox,
        centroid=component.centroid,
        area=component.area,
        ref_hist=hist16_of_bins(bins),
        confidence=1.0,
        velocity=(0.0, 0.0),
    )


# ---------------------------------------------------------------------------
# mean shift

def _clip_rect(rect, width, height):
    x, y, w, h = rect
    w = min(w, width)
    h = min(h, height)
    x = min(max(x, 0), width - w)
    y = min(max(y, 0), height - h)
    return (int(x), int(y), int(w), int(h))


def _window_sum(weights, rect):
    x, y, w, h = rect
    return float(weights[y : y + h, x : x + w].sum())


def mean_shift(weights, window, trace=None):
    """Recenter the window on the weighted centroid of its contents.

    Moves that would lower the window's weight sum are halved until they gain
    weight or vanish, so the weight sum never decreases across iterations.
    Returns (window, iterations, converged); an all-zero window is returned
    unchanged with converged False.
    """
    hgt, wid = weights.shape
    rect = _clip_rect(window, wid, hgt)
    x, y, w, h = rect
    cur = _window_sum(weights, rect)
    if cur <= 0.0:
        return rect, 0, False
    if trace is not None:
        trace.append(cur)
    xs = np.arange(wid)
    ys = np.arange(hgt)
    converged = False
    it = 0
    while it < MEAN_SHIFT_MAX_ITER:
        it += 1
        sub = weights[y : y + h, x : x + w]
        total = sub.sum()
        cx = float((sub.sum(axis=0) * xs[x : x + w]).sum() / total)
        cy = float((sub.sum(axis=1) * ys[y : y + h]).sum() / total)
        nx = int(round(cx - (w - 1) / 2.0))
        ny = int(round(cy - (h - 1) / 2.0))
        nx, ny, _, _ = _clip_rect((nx, ny, w, h), wid, hgt)
        if (nx, ny) == (x, y):
            converged = True
            break
        cand = _window_sum(weights, (nx, ny, w, h))
        while cand < cur:  # halve the displacement rather than lose weight
            nx = x + int((nx - x) / 2.0)
            ny = y + int((ny - y) / 2.0)
            if (nx, ny) == (x, y):
                break
            cand = _window_sum(weights, (nx, ny, w, h))
        if (nx, ny) == (x, y):
            converged = True
            break
        x, y = nx, ny
        cur = cand
        if trace is not None:
            trace.append(cur)
    return (x, y, w, h), it, converged


# ---------------------------------------------------------------------------
# tracking

def _rect_iou(a, b):
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    ix = max(0, min(ax0 + aw, bx0 + bw) - max(ax0, bx0))
    iy = max(0, min(ay0 + ah, by0 + bh) - max(ay0, by0))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _shift_blob(prev, width, height):
    """Coast one frame at the last velocity with decayed confidence."""
    vx, vy = prev.velocity
    cx, cy = prev.centroid[0] + vx, prev.centroid[1] + vy
    x, y, w, h = prev.bbox
    bbox = _clip_rect((int(round(x + vx)), int(round(y + vy)), w, h), width, height)
    return PersonBlob(
        bbox=bbox,
        centroid=(cx, cy),
        area=prev.area,
        ref_hist=prev.ref_hist,
        confidence=prev.confidence * 0.8,
        velocity=(vx, vy),
    )


def _last_window(prev):
    """``prev``'s window: its bbox size, at least 2 px, centred on its
    centroid. Python's round rounds half to even; ``mean_shift`` clips the
    window to the frame."""
    w, h = max(2, int(prev.bbox[2])), max(2, int(prev.bbox[3]))
    cx, cy = prev.centroid
    return (round(cx - (w - 1) / 2.0), round(cy - (h - 1) / 2.0), w, h)


def mspf_track(prev, frame, fg, component):
    """One tracking step: mean shift from the last window, then fusion.

    The name, from the mean-shift particle filter this step replaced, is
    kept because ``perfbench/run.py`` times the function under it
    (``TIMED_FUNCS``). Mean shift starts from
    ``prev``'s window (``_last_window``) over the backprojection of the
    reference histogram masked by ``fg``, the (h, w) bool foreground mask.
    The converged window is fused with ``component``, the ``ComponentStats``
    of the person component that ``maskops.refine_mask`` returns, when their
    boxes' IoU exceeds ``FUSION_IOU_GATE``. A window that holds no foreground
    at all is no evidence, and the component's box and centroid are taken
    instead. With no component (``None``: refinement kept nothing) the
    previous state coasts at its last velocity and confidence decays by 0.8
    per frame; a coast that carries the centroid out of the frame ends the
    track and returns None.
    """
    if component is None:
        coast = _shift_blob(prev, frame.width, frame.height)
        cx, cy = coast.centroid
        if not (0 <= cx <= frame.width - 1 and 0 <= cy <= frame.height - 1):
            return None
        return coast

    plane = frame.uv_bins
    ref = prev.ref_hist
    # mean shift over the masked backprojection. Off the foreground every
    # weight is 0.0, so only its bounding box is filled in.
    wimg = np.zeros(fg.shape)
    y0, y1, x0, x1 = foreground_box(fg) or (0, 0, 0, 0)
    crop = np.s_[y0:y1, x0:x1]
    wimg[crop] = np.where(fg[crop], ref.take(plane[crop]), 0.0)
    win, _, _ = mean_shift(wimg, _last_window(prev))
    wx, wy, ww, wh = win
    sub = fg[wy : wy + wh, wx : wx + ww]
    total = sub.sum()
    if total == 0:
        # a window with no foreground is no evidence: the component wins
        centroid, bbox = component.centroid, component.bbox
    else:
        # the foreground centroid inside the converged window
        ex = float((sub.sum(axis=0) * np.arange(wx, wx + ww)).sum() / total)
        ey = float((sub.sum(axis=1) * np.arange(wy, wy + wh)).sum() / total)
        if _rect_iou(win, component.bbox) > FUSION_IOU_GATE:
            centroid = ((ex + component.centroid[0]) / 2.0, (ey + component.centroid[1]) / 2.0)
            bbox = component.bbox
        else:
            centroid, bbox = (ex, ey), win

    crop = np.s_[bbox[1] : bbox[1] + bbox[3], bbox[0] : bbox[0] + bbox[2]]
    counts = np.bincount(plane[crop][fg[crop]], minlength=N_BINS)
    # the counts never sum to 0: the crop is either the component's box, and
    # the component's pixels lie in fg, or a window found to hold foreground
    conf = float((np.sqrt(counts / counts.sum()) * np.sqrt(ref)).sum())

    return PersonBlob(
        bbox=bbox,
        centroid=centroid,
        area=component.area,
        ref_hist=prev.ref_hist,
        confidence=conf,
        velocity=(centroid[0] - prev.centroid[0], centroid[1] - prev.centroid[1]),
    )


def torso_from_person(person):
    """Torso disc at the person centroid, radius = half the blob width, for a
    person at least 2 px wide: ``cli.FrameStep`` skips the part stage for a
    narrower one."""
    w = person.bbox[2]
    return TorsoDisc(center=person.centroid, radius=w / 2.0)
