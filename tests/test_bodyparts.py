import numpy as np
import pytest

from hbpt import bodyparts as bp
from hbpt import maskops as mo
from hbpt.blobmodel import fit_blob
from hbpt.config import PipelineConfig
from hbpt.synthgen import render_person_mask
from hbpt.tracker import TorsoDisc

from conftest import connected_components, fill_holes, frame_from_rgb, largest_index, nesting_masks

MIN_PART_AREA = PipelineConfig().parts_min_area


def person_mask(pose, ox=160, oy=60, shape=(240, 320)):
    return render_person_mask(np.zeros(shape, dtype=bool), ox, oy, pose)


def tight_bbox(mask):
    """The silhouette's bounding box (x, y, w, h)."""
    ys, xs = np.nonzero(mask)
    return (
        int(xs.min()),
        int(ys.min()),
        int(xs.max() - xs.min() + 1),
        int(ys.max() - ys.min() + 1),
    )


def shoulder_disc(mask):
    """Disc centered at the silhouette centroid reaching the shoulder band."""
    ys, xs = np.nonzero(mask)
    cy = ys.mean()
    top = ys.min()
    return TorsoDisc(center=(xs.mean(), cy), radius=(cy - top) * 0.75)


def flat_frame_like(mask):
    rgb = np.zeros(mask.shape + (3,), np.uint8)
    rgb[mask] = (180, 60, 60)
    return frame_from_rgb(rgb)


def in_frame(partition, label, shape):
    """A region mask placed back into a frame of ``shape`` at its bbox."""
    x, y, w, h = partition.bbox
    out = np.zeros(shape, dtype=bool)
    out[y : y + h, x : x + w] = partition.masks[label]
    return out


def test_partition_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        bp.partition_regions(np.zeros((10, 10), bool), TorsoDisc((5, 5), 2.0), (0, 0, 10, 10))


def test_starfish_all_regions_nonempty_and_disjoint():
    mask = person_mask("star")
    partition = bp.partition_regions(mask, shoulder_disc(mask), tight_bbox(mask))
    total = np.zeros_like(mask)
    for label in bp.PART_LABELS:
        region = in_frame(partition, label, mask.shape)
        assert region.sum() >= 15, label
        assert not (total & region).any(), label  # pairwise disjoint
        total |= region
    assert (total <= mask).all()  # union within silhouette


def test_leg_grid_boundaries():
    mask = person_mask("down")
    disc = shoulder_disc(mask)
    partition = bp.partition_regions(mask, disc, tight_bbox(mask))
    cx, cy = disc.center
    r = disc.radius
    ys, xs = np.nonzero(mask)
    bottom = ys.max()
    mid = (cy + r + bottom) / 2.0
    for label, want_left, want_upper in (
        ("leg1", True, True),
        ("leg2", False, True),
        ("leg3", True, False),
        ("leg4", False, False),
    ):
        rys, rxs = np.nonzero(in_frame(partition, label, mask.shape))
        assert rys.size
        assert ((rxs < cx) == want_left).all(), label
        assert ((rys <= mid) == want_upper).all(), label
        assert (rys > cy + r).all(), label


def test_build_part_model_starfish_eight_blobs():
    mask = person_mask("star")
    frame = flat_frame_like(mask)
    partition = bp.partition_regions(mask, shoulder_disc(mask), tight_bbox(mask))
    model = bp.build_part_model(partition, frame, MIN_PART_AREA)
    assert sorted(model.blobs) == sorted(bp.PART_LABELS)
    assert len(model.blobs) == 8


def test_build_part_model_arm_deletion_and_recreation():
    frame = flat_frame_like(person_mask("reach"))
    disc = shoulder_disc(person_mask("reach"))

    def model_of(pose):
        mask = person_mask(pose)
        return bp.build_part_model(
            bp.partition_regions(mask, disc, tight_bbox(mask)), frame, MIN_PART_AREA
        )

    present = model_of("reach")
    assert "armR" in present.blobs
    hidden = model_of("reach_hidden")
    assert "armR" not in hidden.blobs
    back = model_of("reach")
    assert "armR" in back.blobs


def test_central_only_pixels_give_torso_alone():
    mask = np.zeros((60, 60), bool)
    mask[25:36, 25:36] = True
    disc = TorsoDisc(center=(30.0, 30.0), radius=10.0)
    partition = bp.partition_regions(mask, disc, tight_bbox(mask))
    model = bp.build_part_model(partition, flat_frame_like(mask), MIN_PART_AREA)
    assert list(model.blobs) == ["torso"]


def test_blobs_meet_min_area_and_live_in_disc():
    mask = person_mask("star")
    disc = shoulder_disc(mask)
    partition = bp.partition_regions(mask, disc, tight_bbox(mask))
    model = bp.build_part_model(partition, flat_frame_like(mask), min_part_area=15)
    for label, blob in model.blobs.items():
        assert blob.area >= 15
    torso = model.blobs["torso"]
    dx = torso.mu[0] - disc.center[0]
    dy = torso.mu[1] - disc.center[1]
    assert dx * dx + dy * dy <= disc.radius**2


def test_detect_starfish_true_on_star_pose():
    mask = person_mask("star")
    disc = shoulder_disc(mask)
    partition = bp.partition_regions(mask, disc, tight_bbox(mask))
    model = bp.build_part_model(partition, flat_frame_like(mask), MIN_PART_AREA)
    assert bp.detect_starfish(model, disc)


def test_detect_starfish_false_with_arms_down():
    mask = person_mask("down")
    disc = shoulder_disc(mask)
    partition = bp.partition_regions(mask, disc, tight_bbox(mask))
    model = bp.build_part_model(partition, flat_frame_like(mask), MIN_PART_AREA)
    assert not bp.detect_starfish(model, disc)


def test_detect_starfish_false_without_head():
    mask = person_mask("star")
    disc = shoulder_disc(mask)
    partition = bp.partition_regions(mask, disc, tight_bbox(mask))
    model = bp.build_part_model(partition, flat_frame_like(mask), MIN_PART_AREA)
    model.blobs.pop("head")
    assert not bp.detect_starfish(model, disc)


# ---------------------------------------------------------------------------
# the bbox crop against the full-frame computation

def _reference_partition_regions(silhouette, torso, bbox=None):
    """Full-frame partition: every region mask has the silhouette's shape."""
    sil = np.asarray(silhouette).astype(bool)
    if not sil.any():
        raise ValueError("cannot partition an empty silhouette")
    if bbox is None:
        ys, xs = np.nonzero(sil)
        bbox = (
            int(xs.min()),
            int(ys.min()),
            int(xs.max() - xs.min() + 1),
            int(ys.max() - ys.min() + 1),
        )
    h, w = sil.shape
    cx, cy = torso.center
    r = torso.radius
    xs = np.arange(w)[None, :]
    ys = np.arange(h)[:, None]
    inside_disc = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    above = ys < cy - r
    below = ys > cy + r
    band_y = ~above & ~below
    in_x = np.abs(xs - cx) <= r
    left = (xs - cx) < -r
    right = (xs - cx) > r
    bbox_bottom = bbox[1] + bbox[3] - 1
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
    for label in masks:
        masks[label] &= ys <= bbox_bottom
    return bp.RegionPartition(masks=masks, bbox=bbox)


def _reference_largest_filled_component(mask):
    comps = connected_components(mask)
    best = largest_index(comps)
    if best is None:
        return None
    x, y, w, h = comps.stats[best].bbox
    sub = fill_holes(comps.labels[y : y + h, x : x + w] == best + 1)
    sy, sx = np.nonzero(sub)
    return np.column_stack([sx + x, sy + y])


def _reference_build_part_model(partition, frame, min_part_area):
    """Blobs and pixels per label from full-frame region masks."""
    blobs, part_pixels = {}, {}
    for label in bp.PART_LABELS:
        mask = partition.masks[label]
        if int(mask.sum()) < min_part_area:
            continue
        pixels = _reference_largest_filled_component(mask)
        if pixels is None or pixels.shape[0] < min_part_area:
            continue
        blobs[label] = fit_blob(pixels, frame, label=label)
        part_pixels[label] = pixels
    return blobs, part_pixels


def textured_frame(shape, seed=0):
    rng = np.random.default_rng(seed)
    return frame_from_rgb(rng.integers(0, 256, size=shape + (3,), dtype=np.uint8))


def assert_crop_matches_reference(mask, disc, min_part_area=MIN_PART_AREA):
    """Partition and part model equal the full-frame ones."""
    tight = tight_bbox(mask)
    frame = textured_frame(mask.shape)
    ref = _reference_partition_regions(mask, disc, tight)
    got = bp.partition_regions(mask, disc, tight)
    assert got.bbox == tight
    for label in bp.PART_LABELS:
        assert got.masks[label].shape == (tight[3], tight[2])
        assert np.array_equal(in_frame(got, label, mask.shape), ref.masks[label]), label
    ref_blobs, ref_pixels = _reference_build_part_model(ref, frame, min_part_area)
    model = bp.build_part_model(got, frame, min_part_area=min_part_area)
    assert {k: b.to_dict() for k, b in model.blobs.items()} == {
        k: b.to_dict() for k, b in ref_blobs.items()
    }
    assert list(model.part_pixels) == list(ref_pixels)
    for label, pixels in ref_pixels.items():
        got_pixels = model.part_pixels[label]
        assert got_pixels.dtype == pixels.dtype, label
        assert np.array_equal(got_pixels, pixels), label
    return model


def truth_disc(mask):
    """The disc synthgen partitions its truth with: centroid, half bbox width."""
    ys, xs = np.nonzero(mask)
    return TorsoDisc(center=(float(xs.mean()), float(ys.mean())), radius=(xs.max() - xs.min() + 1) / 2.0)


@pytest.mark.parametrize("pose", ["star", "reach", "reach_hidden", "down"])
@pytest.mark.parametrize("disc_of", [shoulder_disc, truth_disc])
def test_crop_matches_reference_poses(pose, disc_of):
    mask = person_mask(pose, ox=150, oy=70)
    model = assert_crop_matches_reference(mask, disc_of(mask))
    assert "torso" in model.blobs


# star figure placements touching the left, right, top and bottom frame edges
@pytest.mark.parametrize(
    "ox, oy, edge",
    [(45, 60, "left"), (275, 60, "right"), (150, 0, "top"), (150, 126, "bottom"),
     (45, 0, "left-top"), (275, 126, "right-bottom")],
)
def test_crop_matches_reference_at_frame_edges(ox, oy, edge):
    mask = person_mask("star", ox=ox, oy=oy)
    ys, xs = np.nonzero(mask)
    touches = {
        "left": xs.min() == 0,
        "right": xs.max() == mask.shape[1] - 1,
        "top": ys.min() == 0,
        "bottom": ys.max() == mask.shape[0] - 1,
    }
    assert all(touches[side] for side in edge.split("-"))
    assert_crop_matches_reference(mask, shoulder_disc(mask))


@pytest.mark.parametrize("corner", ["top-left", "top-right", "bottom-left", "bottom-right"])
def test_crop_matches_reference_in_frame_corner(corner):
    mask = np.zeros((60, 80), bool)
    rows = slice(0, 30) if corner.startswith("top") else slice(30, 60)
    cols = slice(0, 24) if corner.endswith("left") else slice(56, 80)
    mask[rows, cols] = True
    ys, xs = np.nonzero(mask)
    cx, cy = float(xs.mean()), float(ys.mean())
    assert_crop_matches_reference(mask, TorsoDisc(center=(cx, cy), radius=6.0))
    # a corner pixel of the frame is foreground
    assert mask[0 if corner.startswith("top") else -1, 0 if corner.endswith("left") else -1]


def _torso_block():
    """A 21x21 block around a radius-10 disc at (40, 30) in a 60x80 frame."""
    mask = np.zeros((60, 80), bool)
    mask[20:41, 30:51] = True
    return mask, TorsoDisc(center=(40.0, 30.0), radius=10.0)


def test_crop_matches_reference_equal_area_tie_takes_first_label():
    mask, disc = _torso_block()
    mask[22:25, 60:65] = True  # two 15-px blobs right of the disc, upper first
    mask[32:35, 55:60] = True
    model = assert_crop_matches_reference(mask, disc)
    rows = model.part_pixels["armR"][:, 1]
    assert set(rows.tolist()) == {22, 23, 24}


def test_crop_matches_reference_one_pixel_limb():
    mask, disc = _torso_block()
    mask[30, 0:30] = True  # 1-px-wide arm reaching the left frame edge
    model = assert_crop_matches_reference(mask, disc)
    assert model.part_pixels["armL"].shape == (30, 2)
    assert set(model.part_pixels["armL"][:, 1].tolist()) == {30}


@pytest.mark.parametrize("area", [14, 15])
def test_crop_matches_reference_at_min_part_area(area):
    mask, disc = _torso_block()
    ys, xs = np.divmod(np.arange(area), 5)
    mask[22 + ys, 58 + xs] = True  # 3 rows of 5 (or 14 px) right of the disc
    model = assert_crop_matches_reference(mask, disc, min_part_area=15)
    assert ("armR" in model.blobs) == (area >= 15)


def _random_silhouettes(rng, count=60, shape=(60, 80)):
    """Blocks with specks, fragmented noise, thin strokes, some at the frame
    edge; holes filled, as ``refine_mask`` hands over every silhouette."""
    h, w = shape
    for i in range(count):
        mask = np.zeros(shape, bool)
        for _ in range(int(rng.integers(1, 6))):
            y, x = int(rng.integers(-5, h)), int(rng.integers(-5, w))
            bh, bw = (int(v) for v in rng.integers(1, 30, 2))
            mask[max(y, 0) : y + bh, max(x, 0) : x + bw] = True
        kind = i % 3
        if kind == 0:
            mask &= rng.random(shape) > 0.1  # pepper holes
        elif kind == 1:
            mask |= rng.random(shape) < 0.05  # specks
        else:
            mask ^= rng.random(shape) < 0.3
        if mask.any():
            yield fill_holes(mask)


def test_build_part_model_matches_reference_on_random_silhouettes():
    rng = np.random.default_rng(41)
    for mask in _random_silhouettes(rng):
        ys, xs = np.nonzero(mask)
        cx = float(rng.uniform(xs.min(), xs.max() + 1))
        cy = float(rng.uniform(ys.min(), ys.max() + 1))
        disc = TorsoDisc(center=(cx, cy), radius=float(rng.uniform(1.0, 15.0)))
        for min_part_area in (0, 1, 15, 40):
            assert_crop_matches_reference(mask, disc, min_part_area)


# ---------------------------------------------------------------------------
# regions cut from a hole-free silhouette have hole-free largest components

def test_region_components_of_refined_silhouettes_have_no_holes():
    rng = np.random.default_rng(53)
    discs = outside = components = 0
    for m in nesting_masks(rng, 3000):
        _, stats, silhouette = mo.refine_mask(m, 1, (3, 3), 1)
        if stats is None:
            continue
        x, y, w, h = stats.bbox
        for reach in (0, 1):
            # centres inside the box, then up to a box size beyond it; radii
            # from 1 px to the box width
            cx = float(rng.uniform(x - reach * w, x + (1 + reach) * w))
            cy = float(rng.uniform(y - reach * h, y + (1 + reach) * h))
            disc = TorsoDisc(center=(cx, cy), radius=float(rng.uniform(1.0, max(w, 1.0))))
            discs += 1
            outside += not (x <= cx < x + w and y <= cy < y + h)
            partition = bp.partition_regions(silhouette, disc, stats.bbox)
            masks = [partition.masks[label] for label in bp.PART_LABELS]
            for found in mo.largest_components(masks):
                if found is not None:
                    comp = found[2]
                    assert np.array_equal(fill_holes(comp), comp)
                    components += 1
    assert discs >= 5000 and 2000 <= outside <= discs - 2500, (discs, outside)
    assert components >= 2 * discs, (components, discs)
