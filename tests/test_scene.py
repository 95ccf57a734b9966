import copy

import numpy as np
import pytest

from hbpt import scene as sm
from hbpt import synthgen as sg

from conftest import flat_frame, frame_from_rgb


def _random_frames(rng, n, w=12, h=9):
    return [
        frame_from_rgb(rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8), i)
        for i in range(n)
    ]


def test_learn_identical_frames_var_at_floor():
    frames = [flat_frame((10, 20, 30), index=i) for i in range(30)]
    model = sm.learn_scene(frames, var_floor=4.0)
    assert (model.var == 4.0).all()


def test_learn_two_point_variance():
    a = flat_frame((100, 100, 100))
    b = flat_frame((106, 106, 106))
    model = sm.learn_scene([a, b], var_floor=1.0)
    # yuv of flat gray frames: Y = gray value, U = V = 128
    assert model.mean[0, 0, 0] == pytest.approx(103.0)
    assert model.var[0, 0, 0] == pytest.approx(9.0)  # d = 3 -> d^2
    assert model.var[0, 0, 1] == pytest.approx(1.0)  # chroma equal -> floor


def test_learn_matches_accumulation_oracle_exactly():
    rng = np.random.default_rng(7)
    frames = _random_frames(rng, 30)
    model = sm.learn_scene(frames, var_floor=0.0)
    coords = rng.integers(0, 9, size=(200, 2))
    for y, x in coords:
        for c in range(3):
            acc = 0.0
            acc2 = 0.0
            for f in frames:
                v = float(f.yuv[y, x, c])
                acc += v
                acc2 += v * v
            mean = acc / 30.0
            var = acc2 / 30.0 - mean * mean
            assert model.mean[y, x, c] == np.float32(mean)
            assert model.var[y, x, c] == np.float32(max(var, 0.0))


def _reference_learn_scene(frames, var_floor):
    """Mean and variance from float64 sums, each rounded once to float32."""
    acc = np.zeros(frames[0].yuv.shape)
    acc2 = np.zeros(frames[0].yuv.shape)
    for f in frames:
        x = f.yuv.astype(np.float64)
        acc += x
        acc2 += x * x
    n = float(len(frames))
    mean = acc / n
    var = np.maximum(acc2 / n - mean * mean, var_floor)
    return mean.astype(np.float32), var.astype(np.float32)


# 257 frames are the most whose sums fit uint16; white frames reach the
# largest sums, 255 per frame in Y. A 130x130 frame (16,900 px) spans one
# whole block of sums and a partial one.
@pytest.mark.parametrize("n", [2, 30, 257, 258])
@pytest.mark.parametrize("white", [False, True])
def test_learn_matches_float64_accumulation(n, white):
    assert sm._BLOCK_PIXELS < 130 * 130 < 2 * sm._BLOCK_PIXELS
    sizes = [(12, 9)] if n == 30 else [(12, 9), (130, 130)]
    for w, h in sizes:
        if white:
            frames = [flat_frame((255, 255, 255), w, h, i) for i in range(n)]
        else:
            frames = _random_frames(np.random.default_rng(n), n, w, h)
        for var_floor in (0.0, 4.0):
            model = sm.learn_scene(frames, var_floor)
            mean, var = _reference_learn_scene(frames, var_floor)
            assert model.mean.tobytes() == mean.tobytes(), (w, h)
            assert model.var.tobytes() == var.tobytes(), (w, h)


def test_learn_matches_float64_accumulation_on_synthgen():
    frames, _, _ = sg.generate_scenario(sg.Scenario("carry_box", frames=30, seed=1))
    model = sm.learn_scene(frames, 4.0)
    mean, var = _reference_learn_scene(frames, 4.0)
    assert model.mean.tobytes() == mean.tobytes() and model.var.tobytes() == var.tobytes()


def test_learn_errors():
    with pytest.raises(ValueError, match="at least 2"):
        sm.learn_scene([flat_frame((0, 0, 0))], var_floor=4.0)


def test_detect_mean_frame_is_empty():
    frames = [flat_frame((90, 120, 60), index=i) for i in range(5)]
    model = sm.learn_scene(frames, var_floor=4.0)
    mask = sm.detect_foreground(model, frames[0], tau=4.0)
    assert not mask.bits.any()


def test_detect_single_offset_pixel():
    frames = [flat_frame((90, 120, 60), index=i) for i in range(5)]
    model = sm.learn_scene(frames, var_floor=4.0)  # sigma = 2
    rgb = frames[0].rgb.copy()
    frame = frame_from_rgb(rgb)
    frame.yuv = frames[0].yuv.copy()
    frame.yuv[3, 4, 0] += 20  # 10 sigma in Y only
    mask = sm.detect_foreground(model, frame, tau=4.0)
    ys, xs = np.nonzero(mask.bits)
    assert list(zip(ys, xs)) == [(3, 4)]


def test_detect_pasted_square_iou():
    rng = np.random.default_rng(11)
    base = rng.integers(70, 150, size=(60, 80, 3)).astype(np.uint8)
    frames = []
    for i in range(30):
        noisy = np.clip(base + rng.normal(0, 2, base.shape), 0, 255).astype(np.uint8)
        frames.append(frame_from_rgb(noisy, i))
    model = sm.learn_scene(frames, var_floor=4.0)
    test_rgb = np.clip(base + rng.normal(0, 2, base.shape), 0, 255).astype(np.uint8)
    truth = np.zeros((60, 80), bool)
    truth[20:40, 30:55] = True
    test_rgb[truth] = np.clip(base[truth].astype(int) + 28, 0, 255)  # ~8 sigma with floor 4
    mask = sm.detect_foreground(model, frame_from_rgb(test_rgb), tau=4.0)
    inter = (mask.bits & truth).sum()
    union = (mask.bits | truth).sum()
    assert inter / union >= 0.95


def test_update_all_foreground_unchanged():
    frames = [flat_frame((90, 120, 60), index=i) for i in range(3)]
    model = sm.learn_scene(frames, var_floor=4.0)
    mean0, var0 = model.mean.copy(), model.var.copy()
    fg = np.ones((30, 40), bool)
    sm.update_scene(model, flat_frame((1, 2, 3)), fg, alpha=0.1, var_floor=4.0)
    assert np.array_equal(model.mean, mean0)
    assert np.array_equal(model.var, var0)


def test_update_fixed_point_at_mean():
    frames = [flat_frame((90, 120, 60), index=i) for i in range(3)]
    model = sm.learn_scene(frames, var_floor=4.0)  # identical frames: var at floor, mean exact
    mean0, var0 = model.mean.copy(), model.var.copy()
    fg = np.zeros((30, 40), bool)
    sm.update_scene(model, frames[0], fg, alpha=0.05, var_floor=4.0)
    assert np.allclose(model.mean, mean0)
    assert np.array_equal(model.var, var0)


def test_update_geometric_decay():
    """After a step in Y the mean follows m <- (1-a)*m + a*x, evaluated in
    float32 one step at a time."""
    frames = [flat_frame((90, 120, 60), index=i) for i in range(3)]
    model = sm.learn_scene(frames, var_floor=4.0)
    stepped = flat_frame((120, 120, 60))
    fg = np.zeros((30, 40), bool)
    alpha, k = 0.1, 12
    a, keep = np.float32(alpha), np.float32(1.0 - alpha)
    x = np.float32(stepped.yuv[0, 0, 0])
    m0 = m = model.mean[0, 0, 0]
    for _ in range(k):
        sm.update_scene(model, stepped, fg, alpha=alpha, var_floor=4.0)
        m = keep * m + a * x
    assert m.dtype == np.float32 and m0 < m < x  # moved towards x, not there yet
    assert (model.mean[..., 0] == m).all()


def test_update_never_touches_masked_pixels():
    rng = np.random.default_rng(13)
    frames = _random_frames(rng, 5)
    model = sm.learn_scene(frames, var_floor=4.0)
    for i in range(10):
        bits = rng.random((9, 12)) < 0.4
        mean0 = model.mean.copy()
        var0 = model.var.copy()
        sm.update_scene(model, _random_frames(rng, 1)[0], bits, alpha=0.2, var_floor=4.0)
        assert np.array_equal(model.mean[bits], mean0[bits])
        assert np.array_equal(model.var[bits], var0[bits])


def test_learning_set_flags_under_one_percent():
    rng = np.random.default_rng(17)
    base = rng.integers(60, 190, size=(40, 50, 3)).astype(np.uint8)
    frames = [
        frame_from_rgb(np.clip(base + rng.normal(0, 2, base.shape), 0, 255).astype(np.uint8), i)
        for i in range(30)
    ]
    model = sm.learn_scene(frames, var_floor=4.0)
    for f in frames:
        mask = sm.detect_foreground(model, f, tau=4.0)
        assert mask.bits.mean() < 0.01


def test_illumination_step_compensated():
    rng = np.random.default_rng(19)
    base = rng.integers(60, 170, size=(30, 40, 3)).astype(np.uint8)
    frames = [
        frame_from_rgb(np.clip(base + rng.normal(0, 2, base.shape), 0, 255).astype(np.uint8), i)
        for i in range(30)
    ]
    alpha = 0.05
    model = sm.learn_scene(frames, var_floor=4.0)
    stepped_base = np.clip(base.astype(int) + 25, 0, 255).astype(np.uint8)
    empty = np.zeros((30, 40), bool)
    steps = int(np.ceil(3 / alpha))
    for i in range(steps):
        noisy = np.clip(stepped_base + rng.normal(0, 2, base.shape), 0, 255).astype(np.uint8)
        sm.update_scene(model, frame_from_rgb(noisy), empty, alpha=alpha, var_floor=4.0)
    probe = frame_from_rgb(
        np.clip(stepped_base + rng.normal(0, 2, base.shape), 0, 255).astype(np.uint8)
    )
    mask = sm.detect_foreground(model, probe, tau=4.0)
    assert mask.bits.mean() < 0.01


# ---------------------------------------------------------------------------
# detect_foreground and the in-place update_scene against one full-frame
# float32 pass

def _reference_detect_foreground(model, frame, tau):
    d = frame.yuv.astype(np.float32) - model.mean
    dist2 = np.sum(d * d / model.var, axis=2)
    assert dist2.dtype == np.float32
    return dist2 > np.float32(tau * tau)


def _reference_update_scene(model, frame, bits, alpha, var_floor):
    """(mean, var) after the update; ``model`` is not touched."""
    vis = ~bits
    if not vis.any():
        return model.mean.copy(), model.var.copy()
    x = frame.yuv.astype(np.float32)
    a, keep = np.float32(alpha), np.float32(1.0 - alpha)
    new_mean = keep * model.mean + a * x
    d = x - new_mean
    new_var = np.maximum(keep * model.var + a * d * d, np.float32(var_floor))
    assert new_mean.dtype == new_var.dtype == np.float32
    keep = vis[:, :, None]
    return np.where(keep, new_mean, model.mean), np.where(keep, new_var, model.var)


def _update_masks(rng, detected):
    h, w = detected.shape
    yield np.zeros((h, w), bool)
    yield np.ones((h, w), bool)
    yield detected
    yield rng.random((h, w)) < 0.3
    border = np.ones((h, w), bool)
    border[1:-1, 1:-1] = False
    yield border
    corner = np.zeros((h, w), bool)
    corner[h - h // 3 :, : w // 3 + 1] = True
    yield corner
    one = np.zeros((h, w), bool)
    one[h - 1, w - 1] = True
    yield one
    yield ~one  # only the last pixel is visible


def _assert_scene_passes_match(model, frames, alpha, tau, var_floor, seed=0):
    rng = np.random.default_rng(seed)
    for frame in frames:
        bits = sm.detect_foreground(model, frame, tau).bits
        assert np.array_equal(bits, _reference_detect_foreground(model, frame, tau))
        for mask in _update_masks(rng, bits):
            trial = copy.deepcopy(model)
            mean, var = _reference_update_scene(trial, frame, mask, alpha, var_floor)
            before_mean, before_var = trial.mean.copy(), trial.var.copy()
            assert sm.update_scene(trial, frame, mask, alpha, var_floor) is trial
            assert trial.mean.tobytes() == mean.tobytes()
            assert trial.var.tobytes() == var.tobytes()
            assert trial.mean[mask].tobytes() == before_mean[mask].tobytes()
            assert trial.var[mask].tobytes() == before_var[mask].tobytes()
        sm.update_scene(model, frame, bits, alpha, var_floor)


def test_detect_foreground_sums_channels_in_np_sum_order():
    """Distances within a few ulps of tau^2, where the order of the channel
    sum decides the flag."""
    rng = np.random.default_rng(8)
    h, w, tau = 120, 160, 4.0
    frame = frame_from_rgb(np.zeros((h, w, 3), np.uint8))
    frame.yuv = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
    mean = (frame.yuv + rng.uniform(-40.0, 40.0, size=(h, w, 3))).astype(np.float32)
    d = frame.yuv - mean
    scale = (d * d).sum(axis=2) / np.float32(tau * tau)
    scale *= 1 + rng.integers(-4, 5, size=(h, w)).astype(np.float32) * np.finfo(np.float32).eps
    var = np.repeat(scale[:, :, None], 3, axis=2)
    assert d.dtype == var.dtype == np.float32
    model = sm.SceneModel(mean=mean, var=var)
    q = d * d / var
    left = (q[:, :, 0] + q[:, :, 1]) + q[:, :, 2] > np.float32(tau * tau)
    right = q[:, :, 0] + (q[:, :, 1] + q[:, :, 2]) > np.float32(tau * tau)
    assert (left != right).sum() > 100  # the case is sensitive to the order
    bits = sm.detect_foreground(model, frame, tau).bits
    assert np.array_equal(bits, _reference_detect_foreground(model, frame, tau))


@pytest.mark.parametrize("shape", [(9, 12), (1, 1), (1, 7), (5, 1), (33, 17)])
def test_scene_passes_match_reference_on_random_frames(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    h, w = shape
    frames = _random_frames(rng, 12, w=w, h=h)
    model = sm.learn_scene(frames[:4], var_floor=4.0)
    _assert_scene_passes_match(model, frames[4:], alpha=0.05, tau=4.0, var_floor=4.0)
    # a tiny floor gives huge distances; a large alpha and tau move the cut
    model = sm.learn_scene(frames[:4], var_floor=1e-3)
    _assert_scene_passes_match(model, frames[4:], alpha=0.7, tau=40.0, var_floor=1e-3, seed=1)


@pytest.mark.parametrize("name", ["walker", "carry_box"])
def test_scene_passes_match_reference_on_synthgen(name):
    frames, _, _ = sg.generate_scenario(sg.Scenario(name, frames=80, seed=5))
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    _assert_scene_passes_match(model, frames[30:80:5], alpha=0.05, tau=4.0, var_floor=4.0)


def test_scene_model_arrays_are_contiguous_float32():
    mean = np.zeros((4, 5, 3))[:, ::-1]
    model = sm.SceneModel(mean=mean, var=np.ones((4, 5, 3)))
    for a in (model.mean, model.var):
        assert a.flags.c_contiguous and a.dtype == np.float32
    frame = flat_frame((10, 20, 30), width=5, height=4)
    sm.update_scene(model, frame, np.zeros((4, 5), bool), alpha=0.5, var_floor=1.0)
    assert (model.mean[..., 0] == 0.5 * frame.yuv[0, 0, 0]).all()


@pytest.mark.parametrize("blocks, extra", [(1, 0), (1, 1), (2, 1)])
def test_scene_passes_match_reference_at_block_boundaries(blocks, extra):
    """Frames of exactly one block, one block and a pixel, two blocks and a pixel."""
    n = blocks * sm._BLOCK_PIXELS + extra
    h = {(1, 0): 128, (1, 1): 5, (2, 1): 3}[blocks, extra]
    assert n % h == 0
    rng = np.random.default_rng(n)
    frames = _random_frames(rng, 5, w=n // h, h=h)
    model = sm.learn_scene(frames[:3], var_floor=4.0)
    _assert_scene_passes_match(model, frames[3:], alpha=0.05, tau=4.0, var_floor=4.0)


def test_detect_foreground_compares_with_tau2_rounded_to_float32():
    """tau = 3.3: float32(tau^2) lies above tau^2, so a distance equal to it
    exceeds tau^2 but is not flagged."""
    tau = 3.3
    t32 = np.float32(tau * tau)
    assert float(t32) > tau * tau
    # one pixel per float32 var within 32 ulps of 1/tau^2; the distance of
    # each is float32(1/var), from x - mean = 1 in Y and 0 in U and V
    n = 64
    var = np.ones((1, n, 3), np.float32)
    start = (np.float32(1.0) / t32).view(np.int32)
    var[0, :, 0] = (start + np.arange(-n // 2, n // 2, dtype=np.int32)).view(np.float32)
    frame = frame_from_rgb(np.zeros((1, n, 3), np.uint8))
    frame.yuv = np.zeros((1, n, 3), np.uint8)
    frame.yuv[..., 0] = 1
    model = sm.SceneModel(np.zeros((1, n, 3)), var)
    dist2 = np.float32(1.0) / var[0, :, 0]
    at_t32 = dist2 == t32
    assert at_t32.any() and (dist2 < t32).any() and (dist2 > t32).any()
    bits = sm.detect_foreground(model, frame, tau).bits[0]
    assert np.array_equal(bits, dist2 > t32)
    assert not bits[at_t32].any()
    assert (dist2[at_t32].astype(np.float64) > tau * tau).all()


def _flips_within_rounding_bound(model, frame, tau):
    """Pixels where the float32 foreground test and a float64 evaluation of
    the same model disagree; asserts that each lies within the float32
    rounding bound of tau^2 and returns how many there are.

    With u = 2**-24, each float32 channel term (x - m)^2 / v carries at most
    four roundings and the two additions two more, so the float32 distance
    is within (1+u)**6 - 1 < 6.1u of the exact one, all terms being
    non-negative. tau^2 rounded to float32 moves by at most u*tau^2, and the
    float64 distance by about 2**-50 of itself. A decision can therefore
    differ only where |dist2_64 - tau^2| < 7.2u * tau^2, stated here as
    4 * eps32 * tau^2 = 8u * tau^2.
    """
    bits = sm.detect_foreground(model, frame, tau).bits
    d = frame.yuv.astype(np.float64) - model.mean.astype(np.float64)
    dist2 = np.sum(d * d / model.var.astype(np.float64), axis=2)
    flips = bits != (dist2 > tau * tau)
    bound = 4 * np.finfo(np.float32).eps * tau * tau
    assert (np.abs(dist2[flips] - tau * tau) <= bound).all()
    return int(flips.sum())


@pytest.mark.parametrize("name", ["walker", "carry_box"])
def test_float32_decisions_match_float64_on_synthgen(name):
    frames, _, _ = sg.generate_scenario(sg.Scenario(name, frames=80, seed=5))
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    for frame in frames[30:]:
        _flips_within_rounding_bound(model, frame, 4.0)
        sm.update_scene(model, frame, sm.detect_foreground(model, frame, 4.0).bits, 0.05, 4.0)


@pytest.mark.parametrize("tau", [4.0, 3.3, 3.7])
def test_float32_decisions_flip_only_near_tau2(tau):
    """Distances built within a few float32 ulps of tau^2, where flips occur."""
    rng = np.random.default_rng(int(tau * 10))
    h, w = 60, 80
    frame = frame_from_rgb(np.zeros((h, w, 3), np.uint8))
    frame.yuv = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
    mean = (frame.yuv + rng.uniform(-40.0, 40.0, size=(h, w, 3))).astype(np.float32)
    d = (frame.yuv - mean).astype(np.float64)
    var = np.repeat(((d * d).sum(axis=2) / (tau * tau))[:, :, None], 3, axis=2)
    var *= 1 + rng.integers(-6, 7, size=(h, w, 1)) * np.finfo(np.float32).eps
    model = sm.SceneModel(mean=mean, var=var)
    assert _flips_within_rounding_bound(model, frame, tau) > 50  # the case flips decisions
