"""Person blob detection and tracking.

The tracker combines a particle filter weighted by UV-histogram similarity
with a mean-shift refinement over the backprojected reference histogram,
fused with the largest foreground component. The torso disc is seeded from
the tracked person blob.
"""

from dataclasses import dataclass

import numpy as np

from .maskops import foreground_box

N_BINS = 16  # joint 4x4 quantization of (U, V)
MEAN_SHIFT_MAX_ITER = 20  # mean-shift recentring steps per call at most


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


@dataclass
class ParticleSet:
    states: np.ndarray  # (n, 3): x, y, scale
    rng: np.random.Generator
    ref_size: tuple  # (w, h) of the person bbox at init


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
# particle filter + mean shift

def init_particles(person, n, seed):
    """Seed n particles at the person centroid with unit scale."""
    states = np.zeros((n, 3), dtype=np.float64)
    states[:, 0] = person.centroid[0]
    states[:, 1] = person.centroid[1]
    states[:, 2] = 1.0
    return ParticleSet(
        states=states,
        rng=np.random.default_rng(seed),
        ref_size=(person.bbox[2], person.bbox[3]),
    )


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


def _state_windows(states, ref_size, height, width):
    """The window (x, y, w, h arrays) of each (x, y, scale) state: ``ref_size``
    scaled, at least 2 px, centred on (x, y) and clipped to the frame like
    ``_clip_rect``. np.rint rounds half to even."""
    w = np.maximum(2, np.rint(ref_size[0] * states[:, 2])).astype(np.intp)
    h = np.maximum(2, np.rint(ref_size[1] * states[:, 2])).astype(np.intp)
    x = np.rint(states[:, 0] - (w - 1) / 2.0).astype(np.intp)
    y = np.rint(states[:, 1] - (h - 1) / 2.0).astype(np.intp)
    np.minimum(w, width, out=w)
    np.minimum(h, height, out=h)
    return np.clip(x, 0, width - w), np.clip(y, 0, height - h), w, h


def _particle_weights(plane, states, ref_size, sqrt_ref):
    """Bhattacharyya coefficient of each particle window's UV histogram.

    Full-window histograms: background dilution penalizes oversized windows,
    which keeps the scale random walk in check. The window counts come from
    an integral histogram over the union of the windows (Porikli, CVPR
    2005), four lookups per window; bins the reference lacks add exactly 0.0
    to every coefficient, so only the others are counted. Several bins share
    one int64 integral image, a lane, each in a bit field wide enough for
    the union's area: no count can carry into the next field, and a window's
    four-corner difference leaves every field at its count.
    """
    x, y, w, h = _state_windows(states, ref_size, *plane.shape)
    x0, y0 = int(x.min()), int(y.min())
    union = plane[y0 : int((y + h).max()), x0 : int((x + w).max())]
    bins = np.flatnonzero(sqrt_ref > 0)
    bits = union.size.bit_length()  # a field holds any count up to the union's area
    per_lane = 63 // bits  # the fields of a lane stay within int64's value bits
    stride = union.shape[1] + 1
    top = (y - y0) * stride
    bottom = top + h * stride
    left = x - x0
    right = left + w
    integral = np.zeros((union.shape[0] + 1, stride), np.int64)
    flat = integral.ravel()
    counts = np.empty((bins.size, len(states)), np.int64)
    for s in range(0, bins.size, per_lane):
        lane = bins[s : s + per_lane]
        lut = np.zeros(N_BINS, np.int64)  # a pixel of a lane bin adds 1 to its field
        lut[lane] = 1 << (bits * np.arange(lane.size))
        np.cumsum(lut.take(union), axis=0, out=integral[1:, 1:])
        np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
        # each difference counts pixels of one strip, so no field borrows
        packed = (flat[bottom + right] - flat[top + right]) - (
            flat[bottom + left] - flat[top + left]
        )
        for j in range(lane.size):
            counts[s + j] = (packed >> (bits * j)) & ((1 << bits) - 1)
    # every pixel lies in one of the 16 bins, so the window area is the count total
    terms = np.zeros((len(states), N_BINS))
    terms[:, bins] = np.sqrt(counts.T / (w * h)[:, None]) * sqrt_ref[bins]
    return terms.sum(axis=1)


def mspf_track(prev, particles, frame, fg, component, cfg):
    """One tracking step: propagate, weight, resample, refine, fuse.

    Particles take Gaussian steps of ``cfg.particles_sigma_xy`` px and
    ``cfg.particles_sigma_scale`` in scale, and their windows are scored by
    Bhattacharyya similarity between their UV histogram and the reference
    histogram. The best particle is refined by mean shift over the
    backprojection masked by ``fg``, the (h, w) bool foreground mask, then
    fused with ``component``, the ``ComponentStats`` of the person component
    that ``maskops.refine_mask`` returns, when their boxes' IoU exceeds
    ``cfg.particles_iou_gate``. A window that holds no foreground at all is no
    evidence, and the component's box and centroid are taken instead. With no component
    (``None``: refinement kept nothing) the previous state coasts at its last
    velocity and confidence decays by 0.8 per frame; a coast that carries
    the centroid out of the frame ends the track and returns (None, None).
    """
    if component is None:
        coast = _shift_blob(prev, frame.width, frame.height)
        cx, cy = coast.centroid
        if not (0 <= cx <= frame.width - 1 and 0 <= cy <= frame.height - 1):
            return None, None
        return coast, particles

    n = particles.states.shape[0]
    rng = particles.rng
    states = particles.states
    sigma_xy, sigma_scale = cfg.particles_sigma_xy, cfg.particles_sigma_scale
    states[:, 0] += rng.normal(0.0, sigma_xy, n) if sigma_xy > 0 else 0.0
    states[:, 1] += rng.normal(0.0, sigma_xy, n) if sigma_xy > 0 else 0.0
    states[:, 2] += rng.normal(0.0, sigma_scale, n) if sigma_scale > 0 else 0.0
    np.clip(states[:, 0], 0, frame.width - 1, out=states[:, 0])
    np.clip(states[:, 1], 0, frame.height - 1, out=states[:, 1])
    np.clip(states[:, 2], 0.2, 3.0, out=states[:, 2])

    plane = frame.uv_bins
    ref = prev.ref_hist
    sqrt_ref = np.sqrt(ref)
    weights = _particle_weights(plane, states, particles.ref_size, sqrt_ref)
    best_state = states[int(np.argmax(weights))].copy()

    wsum = weights.sum()
    probs = weights / wsum if wsum > 0 else np.full(n, 1.0 / n)
    positions = (rng.random() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(probs), positions)
    particles.states = states[np.minimum(idx, n - 1)].copy()

    # mean-shift refinement of the best particle over the masked backprojection;
    # the window takes the tracked person's current size so a wandering scale
    # cannot crop the silhouette and bias the position estimate. Off the
    # foreground every weight is 0.0, so only its bounding box is filled in.
    wimg = np.zeros(fg.shape)
    y0, y1, x0, x1 = foreground_box(fg) or (0, 0, 0, 0)
    crop = np.s_[y0:y1, x0:x1]
    wimg[crop] = np.where(fg[crop], ref.take(plane[crop]), 0.0)
    seed = np.array([[best_state[0], best_state[1], 1.0]])
    win0 = tuple(int(v[0]) for v in _state_windows(seed, prev.bbox[2:], *fg.shape))
    win, _, _ = mean_shift(wimg, win0)
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
        if _rect_iou(win, component.bbox) > cfg.particles_iou_gate:
            centroid = ((ex + component.centroid[0]) / 2.0, (ey + component.centroid[1]) / 2.0)
            bbox = component.bbox
        else:
            centroid, bbox = (ex, ey), win

    crop = np.s_[bbox[1] : bbox[1] + bbox[3], bbox[0] : bbox[0] + bbox[2]]
    counts = np.bincount(plane[crop][fg[crop]], minlength=N_BINS)
    # the counts never sum to 0: the crop is either the component's box, and
    # the component's pixels lie in fg, or a window found to hold foreground
    conf = float((np.sqrt(counts / counts.sum()) * sqrt_ref).sum())

    out = PersonBlob(
        bbox=bbox,
        centroid=centroid,
        area=component.area,
        ref_hist=prev.ref_hist,
        confidence=conf,
        velocity=(centroid[0] - prev.centroid[0], centroid[1] - prev.centroid[1]),
    )
    return out, particles


def torso_from_person(person):
    """Torso disc at the person centroid, radius = half the blob width, for a
    person at least 2 px wide: ``cli.FrameStep`` skips the part stage for a
    narrower one."""
    w = person.bbox[2]
    return TorsoDisc(center=person.centroid, radius=w / 2.0)
