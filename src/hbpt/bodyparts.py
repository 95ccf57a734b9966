"""Torso-relative partitioning of the silhouette and the per-frame body model.

The torso disc splits the silhouette into a central region, a head band above
it, arm bands at its sides, and a legs region below it that is divided into a
2x2 grid. Each populated region's largest component contributes one Gaussian
blob, capped at eight blobs per frame; emptied regions lose their blob and
regain a fresh one when pixels return.
"""

from dataclasses import dataclass

import numpy as np

from .blobmodel import GaussianBlob, fit_blob
from .maskops import largest_components

PART_LABELS = ("head", "torso", "armL", "armR", "leg1", "leg2", "leg3", "leg4")


@dataclass
class RegionPartition:
    masks: dict  # label -> (h, w) bool over bbox, pairwise disjoint, within silhouette
    bbox: tuple  # silhouette bounding box (x, y, w, h); masks[label][0, 0] is (x, y)


@dataclass
class BodyPartModel:
    blobs: dict  # label -> GaussianBlob, at most 8
    part_pixels: dict  # label -> (n, 2) int array

    @property
    def torso(self):
        return self.blobs.get("torso")


def partition_regions(silhouette, torso, bbox):
    """Split the silhouette into the 8 torso-relative part regions.

    central: inside the disc. head: above the disc top, within the disc's
    x-extent. armL/armR: beyond the disc sides, between disc top and bottom.
    legs: below the disc bottom within the disc's x-extent down to the
    bounding-box bottom, split into a 2x2 grid at the disc center x and the
    vertical midpoint.

    ``silhouette`` is an (H, W) bool mask and ``bbox`` = (x, y, w, h) must
    cover it. The region masks are cropped to ``bbox``: each is (h, w) with
    its origin at (x, y).
    """
    bx, by, bw, bh = bbox
    sil = silhouette[by : by + bh, bx : bx + bw]
    if not sil.any():
        raise ValueError("cannot partition an empty silhouette")
    cx, cy = torso.center
    r = torso.radius
    # frame coordinates of the crop, so every test sees the full-frame values
    xs = np.arange(bx, bx + bw)[None, :]
    ys = np.arange(by, by + bh)[:, None]
    inside_disc = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    above = ys < cy - r
    below = ys > cy + r
    band_y = ~above & ~below
    in_x = np.abs(xs - cx) <= r
    left = (xs - cx) < -r
    right = (xs - cx) > r
    bbox_bottom = by + bh - 1
    legs_mid = (cy + r + bbox_bottom) / 2.0

    masks = {
        "torso": sil & inside_disc,
        "head": sil & above & in_x,
        "armL": sil & band_y & left,
        "armR": sil & band_y & right,
        "leg1": sil & below & in_x & (xs < cx) & (ys <= legs_mid),
        "leg2": sil & below & in_x & (xs >= cx) & (ys <= legs_mid),
        "leg3": sil & below & in_x & (xs < cx) & (ys > legs_mid),
        "leg4": sil & below & in_x & (xs >= cx) & (ys > legs_mid),
    }
    return RegionPartition(masks=masks, bbox=bbox)


def build_part_model(partition, frame, min_part_area):
    """Fit one blob per populated region; starved regions lose their blob.

    A region's pixels are its largest 8-connected component; all regions are
    labelled in one pass. A region whose silhouette pixels, or whose
    component's, fall below ``min_part_area`` contributes nothing this frame;
    when it refills, a fresh blob is fitted. The torso is refitted every frame
    from the central region.

    The component has no holes to fill: ``refine_mask`` hands over a
    silhouette with no hole in its bounding box, and each region cuts it with
    a shape whose rows are intervals (disc, bands, half-planes, quadrants). In
    the region's crop, background outside the shape reaches the edge along its
    row, and background outside the silhouette through the silhouette's
    background. So a hole would lie in the region, and the pixels of it that
    are 4-adjacent to the component would belong to the component.
    """
    labels = [l for l in PART_LABELS if int(partition.masks[l].sum()) >= min_part_area]
    ox, oy = partition.bbox[:2]
    blobs, part_pixels = {}, {}
    for label, found in zip(labels, largest_components([partition.masks[l] for l in labels])):
        if found is None:
            continue
        y, x, comp = found
        sy, sx = np.nonzero(comp)
        if sy.size < min_part_area:
            continue
        pixels = np.column_stack([sx + (x + ox), sy + (y + oy)])
        blobs[label] = fit_blob(pixels, frame, label=label)
        part_pixels[label] = pixels
    return BodyPartModel(blobs=blobs, part_pixels=part_pixels)


def detect_starfish(model, torso):
    """True for the frontal both-arms-extended pose.

    Requires head, armL and armR blobs, the head mean above the disc top, and
    each arm mean displaced laterally from the disc center by at least half a
    radius on its own side. (Arm regions already live beyond the disc sides,
    so the lateral test guards against degenerate slivers hugging the rim.)
    """
    head = model.blobs.get("head")
    arm_l = model.blobs.get("armL")
    arm_r = model.blobs.get("armR")
    if head is None or arm_l is None or arm_r is None:
        return False
    cx, cy = torso.center
    r = torso.radius
    if head.mu[1] >= cy - r:
        return False
    if arm_l.mu[0] > cx - 0.5 * r:
        return False
    if arm_r.mu[0] < cx + 0.5 * r:
        return False
    return True
