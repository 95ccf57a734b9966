"""Activity recognizers: approach (proximity + depth gate), open (reference
histogram divergence under mean-shift region tracking) and carry (point-
tracked object moving with the hand).

Each event fires once, on the frame its condition has held for its number of
frames in a row; a single frame that fails the condition, or has no torso,
restarts the count. Approach fires once; Open needs a prior Approach and never
follows Carry; Carry needs a prior Approach.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .tracker import back_project, color_hist16, mean_shift

# Bouguet's pyramidal Lucas-Kanade settings, used by lk_flow
LK_WINDOW = 15  # px side of the square patch solved around each point
LK_LEVELS = 3  # pyramid levels, the full-size image included
LK_ITERS = 20  # solver steps per level at most
LK_MIN_EIG = 1e-3  # per-pixel minimum eigenvalue below which a patch is flat

OBJECT_POINT_SPACING = 4  # px between the grid points seeded inside the box
OBJECT_POINT_MARGIN = 2  # px kept clear of the box edges by that grid
DEPTH_WIN = 5  # px side of the window whose valid depths give a median
HAND_DEPTH_INSET = 3.0  # px the hand's depth sample moves toward the torso


@dataclass
class BoxRegion:
    rect: tuple  # user-configured reference rectangle
    ref_hist: np.ndarray  # 16-bin normalized UV histogram of rect
    tracked_rect: tuple  # current mean-shift-tracked rectangle
    lost: bool = False  # set when backprojection under the rect vanished


@dataclass
class ObjectTrack:
    points: np.ndarray  # (n, 2) float
    alive: np.ndarray  # (n,) bool
    prev_centroid: tuple | None = None

    @property
    def centroid(self):
        if not self.alive.any():
            return None
        pts = self.points[self.alive]
        return (float(pts[:, 0].mean()), float(pts[:, 1].mean()))


@dataclass
class ActivityEvent:
    kind: str  # Approach | Open | Carry
    frame_index: int
    confidence: float
    payload: dict


@dataclass
class ActivityState:
    fired: set = field(default_factory=set)  # event kinds fired so far
    streaks: dict = field(default_factory=dict)  # kind -> frames in a row its condition held
    prev_z_hand: float | None = None
    prev_z_obj: float | None = None


def _held(state, kind, ok, frames):
    """Count one more frame of ``kind``'s condition, or restart the count when
    ``ok`` is false; once it reaches ``frames``, mark ``kind`` fired and
    return True."""
    state.streaks[kind] = state.streaks.get(kind, 0) + 1 if ok else 0
    if state.streaks[kind] < frames:
        return False
    state.fired.add(kind)
    return True


def make_box_region(frame, rect):
    """Build the reference histogram from the configured rectangle."""
    return BoxRegion(
        rect=tuple(rect), ref_hist=color_hist16(frame, rect), tracked_rect=tuple(rect)
    )


def hist_distance(h1, h2):
    """Bhattacharyya distance sqrt(1 - sum(sqrt(p*q))), in [0, 1]."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    if abs(h1.sum() - 1.0) > 1e-6 or abs(h2.sum() - 1.0) > 1e-6:
        raise ValueError("histograms must be normalized")
    coef = float(np.sqrt(h1 * h2).sum())
    return math.sqrt(max(0.0, 1.0 - coef))


def track_box_region(box, frame):
    """Move the tracked rectangle by mean shift over the backprojection. The
    box is lost when its window holds no weight: mean shift then makes no
    iteration, and it never lowers a window's weight."""
    rect, iterations, _ = mean_shift(back_project(frame, box.ref_hist), box.tracked_rect)
    box.lost = iterations == 0
    if not box.lost:
        box.tracked_rect = rect
    return box


def hand_point(model):
    """Arm pixel farthest from the torso center, or None without arms."""
    tx, ty = model.torso.mu
    best, best_d = None, -1.0
    for label in ("armL", "armR"):
        pts = model.part_pixels.get(label)
        if pts is None or len(pts) == 0:
            continue
        d2 = (pts[:, 0] - tx) ** 2 + (pts[:, 1] - ty) ** 2
        i = int(np.argmax(d2))
        if d2[i] > best_d:
            best_d = float(d2[i])
            best = (int(pts[i, 0]), int(pts[i, 1]))
    return best


def _point_rect_distance(p, rect):
    x, y, w, h = rect
    dx = max(x - p[0], 0.0, p[0] - (x + w - 1))
    dy = max(y - p[1], 0.0, p[1] - (y + h - 1))
    return math.hypot(dx, dy)


def _hand_depth_sample(model, hand):
    """Sample point for hand depth, nudged toward the torso so the silhouette
    edge (where depth returns flicker between person and background) is
    avoided."""
    dx = model.torso.mu[0] - hand[0]
    dy = model.torso.mu[1] - hand[1]
    norm = math.hypot(dx, dy)
    if norm < 1e-9:
        return hand
    return (hand[0] + HAND_DEPTH_INSET * dx / norm, hand[1] + HAND_DEPTH_INSET * dy / norm)


def depth_at(depth, point):
    """Median of the valid depths in a DEPTH_WIN x DEPTH_WIN window of the
    (h, w) millimeter array ``depth``; None when all are invalid."""
    half = DEPTH_WIN // 2
    x, y = int(round(point[0])), int(round(point[1]))
    h, w = depth.shape
    x0, x1 = max(0, x - half), min(w, x + half + 1)
    y0, y1 = max(0, y - half), min(h, y + half + 1)
    vals = depth[y0:y1, x0:x1]
    vals = vals[vals > 0]
    if vals.size == 0:
        return None
    return float(np.median(vals))


def detect_approach(model, box, depth, state, frame_index, cfg):
    """Fire Approach after a sustained hand-near-box condition.

    The hand must stay within ``cfg.activity_d_xy`` px of the tracked
    rectangle for ``cfg.activity_approach_frames`` consecutive frames; with
    depth available, the hand and box must also sit within
    ``cfg.activity_z_gate_mm`` millimeters of each other.
    """
    if "Approach" in state.fired:
        return None
    hand = hand_point(model)
    dist = _point_rect_distance(hand, box.tracked_rect) if hand else math.inf
    ok = dist <= cfg.activity_d_xy
    z_hand = z_box = None
    depth_used = False
    if ok and depth is not None:
        bx, by, bw, bh = box.tracked_rect
        z_hand = depth_at(depth, _hand_depth_sample(model, hand))
        z_box = depth_at(depth, (bx + bw / 2.0, by + bh / 2.0))
        depth_used = True
        ok = (
            z_hand is not None
            and z_box is not None
            and abs(z_hand - z_box) <= cfg.activity_z_gate_mm
        )
    if not _held(state, "Approach", ok, cfg.activity_approach_frames):
        return None
    payload = {
        "distance_px": dist,
        "depth_used": depth_used,
        "z_hand_mm": z_hand,
        "z_box_mm": z_box,
        "distance_mm": abs(z_hand - z_box) if depth_used and z_hand is not None else None,
    }
    return ActivityEvent(
        kind="Approach",
        frame_index=frame_index,
        confidence=max(0.0, 1.0 - dist / (cfg.activity_d_xy + 1.0)),
        payload=payload,
    )


def detect_open(box, frame, state, frame_index, cfg):
    """Fire Open once the box rect's histogram has stayed more than
    ``cfg.activity_theta_open`` from its reference for
    ``cfg.activity_open_frames`` frames. Open needs a prior Approach and
    never follows Carry."""
    if "Approach" not in state.fired or "Open" in state.fired or "Carry" in state.fired:
        return None
    d = hist_distance(color_hist16(frame, box.tracked_rect), box.ref_hist)
    if not _held(state, "Open", d > cfg.activity_theta_open, cfg.activity_open_frames):
        return None
    return ActivityEvent(
        kind="Open",
        frame_index=frame_index,
        confidence=min(1.0, d),
        payload={"hist_distance": d, "threshold": cfg.activity_theta_open},
    )


def detect_carry(model, track, depth, state, frame_index, cfg):
    """Fire Carry when the tracked object keeps moving with the hand.

    Needs ``cfg.activity_carry_frames`` frames in a row where the object
    centroid moved more than ``cfg.activity_carry_min_disp`` pixels, the hand
    stayed within ``cfg.activity_d_xy`` of it, and (with depth) hand and
    object depth changed together within ``cfg.activity_carry_z_rate_mm`` mm
    per frame.
    """
    if "Approach" not in state.fired or "Carry" in state.fired:
        return None
    centroid = track.centroid
    hand = hand_point(model)
    z_hand = (
        depth_at(depth, _hand_depth_sample(model, hand))
        if depth is not None and hand
        else None
    )
    z_obj = depth_at(depth, centroid) if depth is not None and centroid else None
    ok = False
    disp = 0.0
    hand_dist = None
    if centroid is not None and track.prev_centroid is not None and hand is not None:
        disp = math.hypot(
            centroid[0] - track.prev_centroid[0], centroid[1] - track.prev_centroid[1]
        )
        hand_dist = math.hypot(hand[0] - centroid[0], hand[1] - centroid[1])
        ok = disp > cfg.activity_carry_min_disp and hand_dist <= cfg.activity_d_xy
        if ok and depth is not None:
            have_all = None not in (z_hand, z_obj, state.prev_z_hand, state.prev_z_obj)
            if have_all:
                dz = (z_obj - state.prev_z_obj) - (z_hand - state.prev_z_hand)
                ok = abs(dz) <= cfg.activity_carry_z_rate_mm
    state.prev_z_hand = z_hand
    state.prev_z_obj = z_obj
    if not _held(state, "Carry", ok, cfg.activity_carry_frames):
        return None
    return ActivityEvent(
        kind="Carry",
        frame_index=frame_index,
        confidence=min(1.0, disp / (cfg.activity_carry_min_disp + 1.0)),
        payload={"displacement_px": disp, "hand_distance_px": hand_dist},
    )


# ---------------------------------------------------------------------------
# pyramidal Lucas-Kanade point tracking

def _blur_decimate(img):
    """[1 2 1] / 4 blur down the columns, then along the rows (edges
    replicated), computed only at the even rows and columns it keeps."""
    h, w = img.shape
    r = np.arange(0, h, 2)
    rows = 0.25 * img[np.maximum(r - 1, 0)] + 0.5 * img[r] + 0.25 * img[np.minimum(r + 1, h - 1)]
    c = np.arange(0, w, 2)
    return (
        0.25 * rows[:, np.maximum(c - 1, 0)]
        + 0.5 * rows[:, c]
        + 0.25 * rows[:, np.minimum(c + 1, w - 1)]
    )


def _pyramid(gray, levels):
    pyr = [gray]
    for _ in range(levels - 1):
        if min(pyr[-1].shape) < 8:
            break
        pyr.append(_blur_decimate(pyr[-1]))
    return pyr


def _sample(img, gx, gy):
    """Bilinear samples of img at (gx, gy), clamped inside the image."""
    h, w = img.shape
    gx = np.clip(gx, 0.0, w - 1.001)
    gy = np.clip(gy, 0.0, h - 1.001)
    x0 = np.floor(gx).astype(int)
    y0 = np.floor(gy).astype(int)
    fx = gx - x0
    fy = gy - y0
    flat = img.ravel()
    i = y0 * w + x0
    top = (1 - fx) * flat.take(i) + fx * flat.take(i + 1)
    bot = (1 - fx) * flat.take(i + w) + fx * flat.take(i + w + 1)
    return (1 - fy) * top + fy * bot


def lk_pyramid(frame):
    """The image pyramid ``lk_flow`` tracks on: the frame's Y channel
    normalized to [0, 1], then up to ``LK_LEVELS - 1`` blurred and
    decimated levels."""
    return _pyramid(frame.yuv[:, :, 0].astype(np.float64) / 255.0, LK_LEVELS)


def lk_flow(prev_pyramid, frame, points):
    """Track points from the frame of ``prev_pyramid`` to ``frame`` with
    pyramidal iterative least squares.

    ``prev_pyramid`` is ``lk_pyramid`` of the previous frame, or the pyramid
    an earlier call returned for it. Each point's flow is solved coarse to
    fine over ``LK_LEVELS`` pyramid levels, inside an ``LK_WINDOW`` x
    ``LK_WINDOW`` patch, in at most ``LK_ITERS`` steps per level (Bouguet's
    pyramidal Lucas-Kanade). A point is lost when its structure tensor is too
    flat (minimum eigenvalue per pixel below ``LK_MIN_EIG``) at the finest
    level, the solution diverges, or it leaves the frame. A point that is
    flat only at a coarser level carries its flow on to the next level
    unchanged.

    All points are solved together, one pyramid level at a time: each point's
    patch is a row of an ``(n, LK_WINDOW**2)`` array, its sums run along that
    row, and each point stops iterating on its own convergence test. The
    arithmetic per point is the same, in the same order, as solving the
    points one by one.

    Returns ``(points, status, pyramid)``: the new positions (lost points
    keep their input position), which points were tracked, and the pyramid
    of ``frame`` for the next call.
    """
    pyr0, pyr1 = prev_pyramid, lk_pyramid(frame)
    half = LK_WINDOW // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    oy, ox = (o.ravel() for o in np.meshgrid(offs, offs, indexing="ij"))
    npx = LK_WINDOW * LK_WINDOW
    out = np.array(points, dtype=np.float64).reshape(-1, 2).copy()
    flow = np.zeros_like(out)
    live = np.arange(len(out))  # points not lost so far

    for lvl in range(len(pyr0) - 1, -1, -1):
        if live.size == 0:
            break
        scale = 2.0**lvl
        i0, i1 = pyr0[lvl], pyr1[lvl]
        gxs = (out[live, 0] / scale)[:, None] + ox
        gys = (out[live, 1] / scale)[:, None] + oy
        ix = (_sample(i0, gxs + 1, gys) - _sample(i0, gxs - 1, gys)) / 2.0
        iy = (_sample(i0, gxs, gys + 1) - _sample(i0, gxs, gys - 1)) / 2.0
        t0 = _sample(i0, gxs, gys)
        gxx = (ix * ix).sum(axis=1)
        gxy = (ix * iy).sum(axis=1)
        gyy = (iy * iy).sum(axis=1)
        tr2 = (gxx + gyy) / 2.0
        det = gxx * gyy - gxy * gxy
        lam_min = tr2 - np.sqrt(np.maximum(tr2 * tr2 - det, 0.0))
        flat = lam_min / npx < LK_MIN_EIG
        if lvl == 0:
            keep = ~flat
        else:
            flow[live[flat]] *= 2.0
            keep = np.ones(live.size, dtype=bool)

        rows = np.flatnonzero(~flat)  # rows of this level's arrays to solve
        f = flow[live[rows]]
        v = np.zeros_like(f)
        todo = np.arange(rows.size)  # solves still iterating
        for _ in range(LK_ITERS):
            if todo.size == 0:
                break
            sel = rows[todo]
            # (patch + flow) + v, in this order: the sums must round as the
            # per-point solve rounds them
            t1 = _sample(
                i1,
                gxs[sel] + f[todo, :1] + v[todo, :1],
                gys[sel] + f[todo, 1:] + v[todo, 1:],
            )
            r = t0[sel] - t1
            bx = (r * ix[sel]).sum(axis=1)
            by = (r * iy[sel]).sum(axis=1)
            dvx = (gyy[sel] * bx - gxy[sel] * by) / det[sel]
            dvy = (gxx[sel] * by - gxy[sel] * bx) / det[sel]
            v[todo, 0] += dvx
            v[todo, 1] += dvy
            todo = todo[~(dvx * dvx + dvy * dvy < 1e-4)]
        diverged = np.hypot(v[:, 0], v[:, 1]) > LK_WINDOW
        keep[rows[diverged]] = False
        ok = ~diverged
        f = f[ok] + v[ok]
        flow[live[rows[ok]]] = f * 2.0 if lvl > 0 else f
        live = live[keep]

    nx = out[live, 0] + flow[live, 0]
    ny = out[live, 1] + flow[live, 1]
    h, w = pyr1[0].shape
    inside = (half <= nx) & (nx < w - half) & (half <= ny) & (ny < h - half)
    live = live[inside]
    out[live, 0] = nx[inside]
    out[live, 1] = ny[inside]
    status = np.zeros(len(out), dtype=bool)
    status[live] = True
    return out, status, pyr1


def seed_object_points(rect):
    """Grid of trackable points inside a rectangle."""
    x, y, w, h = rect
    m, step = OBJECT_POINT_MARGIN, OBJECT_POINT_SPACING
    xs = np.arange(x + m, x + w - m, step, dtype=np.float64)
    ys = np.arange(y + m, y + h - m, step, dtype=np.float64)
    if xs.size == 0 or ys.size == 0:
        xs = np.array([x + w / 2.0])
        ys = np.array([y + h / 2.0])
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return ObjectTrack(points=pts, alive=np.ones(len(pts), dtype=bool))


class ActivityMonitor:
    """Per-frame driver for the three recognizers against one box region.

    Takes the box and recognizer settings from a ``PipelineConfig``.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.box = None
        self.track = None
        self.state = ActivityState()
        self.events = []
        # LK pyramid of the last frame the points moved to: built on the
        # frame Approach seeds them, then returned by each lk_flow call
        self._lk_pyramid = None

    def _track_points(self, frame):
        """Move the alive object points to ``frame``, keeping their centroid
        before the move as the track's prev_centroid."""
        track = self.track
        track.prev_centroid = track.centroid
        alive = np.flatnonzero(track.alive)
        if alive.size == 0:
            return
        pts, ok, self._lk_pyramid = lk_flow(self._lk_pyramid, frame, track.points[alive])
        track.points[alive] = pts
        track.alive[alive] = ok

    def process(self, frame_index, frame, model, depth):
        """Run the recognizers for one frame and its depth raster (or None);
        returns newly fired events."""
        cfg = self.cfg
        if not cfg.box_rect or (self.box is None and frame_index < cfg.box_ref_frame):
            return []
        if self.box is None:
            self.box = make_box_region(frame, cfg.box_rect)
        self.box = track_box_region(self.box, frame)

        # the points feed only detect_carry, which has nothing left to do once
        # Carry fired; the box rectangle above is still tracked for overlays
        if self.track is not None and "Carry" not in self.state.fired:
            self._track_points(frame)

        if model is None or model.torso is None:
            self.state.streaks.clear()
            return []
        approach = detect_approach(model, self.box, depth, self.state, frame_index, cfg)
        if approach:
            self.track = seed_object_points(self.box.tracked_rect)
            self._lk_pyramid = lk_pyramid(frame)
        fired = [
            ev
            for ev in (
                approach,
                detect_open(self.box, frame, self.state, frame_index, cfg),
                detect_carry(model, self.track, depth, self.state, frame_index, cfg),
            )
            if ev
        ]
        self.events.extend(fired)
        return fired
