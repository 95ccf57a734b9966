import math

import numpy as np
import pytest

from hbpt import blobmodel as bm

from conftest import flat_frame


def moment_oracle(pixels):
    """Double-loop raw-moment accumulation in exact integer arithmetic."""
    n = len(pixels)
    sx = sy = sxx = sxy = syy = 0
    for x, y in pixels:
        sx += int(x)
        sy += int(y)
        sxx += int(x) * int(x)
        sxy += int(x) * int(y)
        syy += int(y) * int(y)
    mx, my = sx / n, sy / n
    return (mx, my), (sxx / n - mx * mx, sxy / n - mx * my, syy / n - my * my)


def random_cluster(rng, spread=12):
    n = rng.integers(20, 80)
    base = rng.integers(0, 200, size=2)
    pts = base + rng.integers(0, spread, size=(n, 2))
    return [tuple(int(v) for v in p) for p in pts]


def test_single_pixel_blob_floored():
    blob = bm.fit_blob([(5, 7)])
    assert blob.mu == (5.0, 7.0)
    assert blob.K == ((bm.EPS_REG, 0.0), (0.0, bm.EPS_REG))
    assert blob.area == 1


def test_rectangle_has_uniform_variance():
    w, h = 9, 4
    pixels = [(x, y) for x in range(10, 10 + w) for y in range(20, 20 + h)]
    blob = bm.fit_blob(pixels)
    assert blob.mu == (10 + (w - 1) / 2, 20 + (h - 1) / 2)
    (kxx, kxy), (_, kyy) = blob.K
    assert kxx == pytest.approx((w * w - 1) / 12, abs=1e-12)
    assert kyy == pytest.approx((h * h - 1) / 12, abs=1e-12)
    assert kxy == pytest.approx(0.0, abs=1e-12)


def test_fit_matches_moment_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(300):
        pixels = random_cluster(rng)
        blob = bm.fit_blob(pixels)
        (mx, my), (kxx, kxy, kyy) = moment_oracle(pixels)
        (l1, l2), _ = bm.eig2x2_sym(kxx, kxy, kyy)
        assert l2 >= bm.EPS_REG  # floor must not engage for this comparison
        assert blob.mu == (mx, my)
        assert blob.K == ((kxx, kxy), (kxy, kyy))


def test_fit_empty_cluster_raises():
    with pytest.raises(ValueError, match="empty"):
        bm.fit_blob([])


@pytest.mark.parametrize("pixels", [[(1.0, 2.0), (3.0, 4.0)], [(1.5, 2)], [(True, False)]])
def test_fit_rejects_non_integer_pixels(pixels):
    with pytest.raises(ValueError, match="integer coordinates"):
        bm.fit_blob(pixels)


def test_fit_color_mean():
    frame = flat_frame((10, 20, 30), width=20, height=20)
    blob = bm.fit_blob([(1, 1), (2, 2)], frame)
    y, u, v = frame.yuv[1, 1]
    assert blob.color_mean == (float(y), float(u), float(v))


def test_density_at_mean():
    blob = bm.fit_blob([(x, y) for x in range(6) for y in range(9)])
    (kxx, kxy), (_, kyy) = blob.K
    det = kxx * kyy - kxy * kxy
    assert bm.blob_density(blob, blob.mu) == pytest.approx(1.0 / (2 * math.pi * math.sqrt(det)))


def test_density_isotropic_unit():
    blob = bm.GaussianBlob(mu=(0.0, 0.0), K=((1.0, 0.0), (0.0, 1.0)), color_mean=(0, 0, 0), area=1)
    assert bm.blob_density(blob, (1.0, 1.0)) == pytest.approx(math.exp(-1.0) / (2 * math.pi))


def _random_spd(rng, lo=2.0, hi=40.0):
    l1 = rng.uniform(lo, hi)
    l2 = rng.uniform(lo, l1)
    th = rng.uniform(0, math.pi)
    c, s = math.cos(th), math.sin(th)
    kxx = l1 * c * c + l2 * s * s
    kyy = l1 * s * s + l2 * c * c
    kxy = (l1 - l2) * c * s
    return kxx, kxy, kyy


def test_density_integrates_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        kxx, kxy, kyy = _random_spd(rng)
        blob = bm.GaussianBlob(mu=(0.0, 0.0), K=((kxx, kxy), (kxy, kyy)), color_mean=(0, 0, 0), area=1)
        r = int(math.ceil(6 * math.sqrt(max(kxx, kyy))))
        xs = np.arange(-r, r + 1)
        total = 0.0
        for y in range(-r, r + 1):
            for x in xs:
                total += bm.blob_density(blob, (float(x), float(y)))
        assert abs(total - 1.0) < 1e-2


def test_ellipse_isotropic_circle():
    blob = bm.GaussianBlob(mu=(3.0, 4.0), K=((4.0, 0.0), (0.0, 4.0)), color_mean=(0, 0, 0), area=1)
    center, (a, b), theta = bm.blob_ellipse(blob)
    assert center == (3.0, 4.0)
    assert a == pytest.approx(4.0) and b == pytest.approx(4.0)
    assert theta == 0.0


def test_ellipse_axis_aligned():
    blob = bm.GaussianBlob(mu=(0.0, 0.0), K=((9.0, 0.0), (0.0, 1.0)), color_mean=(0, 0, 0), area=1)
    _, (a, b), theta = bm.blob_ellipse(blob)
    assert a == pytest.approx(6.0) and b == pytest.approx(2.0)
    assert theta == 0.0


def test_ellipse_matches_eigh_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        kxx, kxy, kyy = _random_spd(rng, 0.5, 50.0)
        blob = bm.GaussianBlob(
            mu=(0.0, 0.0), K=((kxx, kxy), (kxy, kyy)), color_mean=(0, 0, 0), area=1
        )
        _, (a, b), theta = bm.blob_ellipse(blob)
        evals, evecs = np.linalg.eigh(np.array([[kxx, kxy], [kxy, kyy]]))
        a_ref = 2.0 * math.sqrt(evals[1])
        b_ref = 2.0 * math.sqrt(evals[0])
        assert a == pytest.approx(a_ref, rel=1e-9)
        assert b == pytest.approx(b_ref, rel=1e-9)
        v = evecs[:, 1]
        ref_theta = math.atan2(v[1], v[0])
        diff = (theta - ref_theta) % math.pi
        assert min(diff, math.pi - diff) < 1e-9


def test_orientation_range():
    rng = np.random.default_rng(3)
    for _ in range(50):
        kxx, kxy, kyy = _random_spd(rng, 0.5, 30.0)
        blob = bm.GaussianBlob(
            mu=(0.0, 0.0), K=((kxx, kxy), (kxy, kyy)), color_mean=(0, 0, 0), area=1
        )
        _, _, theta = bm.blob_ellipse(blob)
        assert -math.pi / 2 < theta <= math.pi / 2


def test_density_argmax_at_mu():
    rng = np.random.default_rng(4)
    pixels = random_cluster(rng)
    blob = bm.fit_blob(pixels)
    xs = [p[0] for p in pixels]
    ys = [p[1] for p in pixels]
    best = max(
        ((x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)),
        key=lambda p: bm.blob_density(blob, p),
    )
    assert math.hypot(best[0] - blob.mu[0], best[1] - blob.mu[1]) <= math.sqrt(0.5)


def test_rotation_by_90_swaps_covariance():
    # covariance is translation invariant, so rotating about the origin is
    # equivalent to rotating about the centroid and stays on the integer grid
    rng = np.random.default_rng(5)
    pixels = random_cluster(rng)
    blob = bm.fit_blob(pixels)
    rblob = bm.fit_blob([(-y, x) for x, y in pixels])
    (kxx, kxy), (_, kyy) = blob.K
    (rxx, rxy), (_, ryy) = rblob.K
    assert rxx == kyy
    assert ryy == kxx
    assert rxy == -kxy


def test_ellipse_translation_invariant():
    rng = np.random.default_rng(6)
    pixels = random_cluster(rng)
    moved = [(x + 31, y - 7) for x, y in pixels]
    _, axes1, th1 = bm.blob_ellipse(bm.fit_blob(pixels))
    _, axes2, th2 = bm.blob_ellipse(bm.fit_blob(moved))
    assert axes1 == pytest.approx(axes2)
    assert th1 == pytest.approx(th2)


def test_blob_json_record():
    blob = bm.fit_blob([(1, 2), (3, 4)], label="head")
    rec = blob.to_dict()
    assert rec["label"] == "head"
    assert rec["mu"] == [2.0, 3.0]
    assert len(rec["K"]) == 2 and len(rec["K"][0]) == 2
    assert rec["area"] == 2
