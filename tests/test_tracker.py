import copy

import numpy as np
import pytest

from hbpt import maskops as mo
from hbpt import scene as sm
from hbpt import synthgen as sg
from hbpt import tracker as tr
from hbpt.config import PipelineConfig

from conftest import frame_from_rgb, person_component
from test_maskops import flood_fill_oracle

CFG = PipelineConfig()  # the pipeline's default settings


def _square_person_frame(size=31, left=40, top=30, w=120, h=90):
    """Flat scene with a uniformly colored square target; centroid = center."""
    rgb = np.full((h, w, 3), (120, 130, 115), np.uint8)
    rgb[top : top + size, left : left + size] = sg.SHIRT
    frame = frame_from_rgb(rgb)
    fg = np.zeros((h, w), bool)
    fg[top : top + size, left : left + size] = True
    return frame, fg


# ---------------------------------------------------------------------------
# histograms and backprojection

def test_color_hist_uniform_rect_single_bin():
    frame, _ = _square_person_frame()
    hist = tr.color_hist16(frame, (40, 30, 31, 31))
    assert np.count_nonzero(hist) == 1
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def test_back_project_uniform_hist_constant():
    frame, _ = _square_person_frame()
    weights = tr.back_project(frame, np.full(16, 1.0 / 16))
    assert (weights == 1.0 / 16).all()


def test_back_project_single_bin_indicator():
    frame, fg = _square_person_frame()
    hist = np.zeros(16)
    plane = frame.uv_bins
    target_bin = plane[40, 50]  # inside the square
    hist[target_bin] = 1.0
    weights = tr.back_project(frame, hist)
    assert ((weights == 1.0) == (plane == target_bin)).all()


def test_back_project_rejects_unnormalized():
    frame, _ = _square_person_frame()
    with pytest.raises(ValueError):
        tr.back_project(frame, np.full(16, 0.2))


def test_back_project_separates_patch_from_scene():
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=35))
    frame = frames[32]
    truth_mask = None
    # histogram from the person bbox via foreground detection
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    fg = sm.detect_foreground(model, frame, tau=4.0)
    refined, _, _ = mo.refine_mask(fg.bits, 300, (3, 3), 1)
    hist = tr.hist16_of_bins(frame.uv_bins[refined])
    weights = tr.back_project(frame, hist)
    inside = weights[refined].mean()
    outside = weights[~refined].mean()
    assert inside >= 5 * outside


# ---------------------------------------------------------------------------
# detection

def test_detect_person_no_components():
    frame, _ = _square_person_frame()
    assert tr.detect_person(*person_component(np.zeros((10, 10), bool)), frame, 50) is None


def test_detect_person_too_small():
    m = np.zeros((10, 10), bool)
    m[2:4, 2:4] = True
    frame = frame_from_rgb(np.zeros((10, 10, 3), np.uint8))
    assert tr.detect_person(*person_component(m), frame, 50) is None


def test_detect_person_centroid_matches_flood_fill_oracle():
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=33))
    frame = frames[32]
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    fg = sm.detect_foreground(model, frame, tau=4.0).bits
    refined, component, silhouette = mo.refine_mask(fg, 300, (3, 3), 1)
    person = tr.detect_person(component, silhouette, frame, 700)
    assert person is not None
    labels, count = flood_fill_oracle(refined[::1, ::1])
    areas = [(labels == i + 1).sum() for i in range(count)]
    big = int(np.argmax(areas)) + 1
    ys, xs = np.nonzero(labels == big)
    assert person.centroid == (pytest.approx(xs.mean()), pytest.approx(ys.mean()))
    assert person.ref_hist.sum() == pytest.approx(1.0, abs=1e-12)
    assert person.confidence == 1.0


# ---------------------------------------------------------------------------
# mean shift

def test_mean_shift_symmetric_bump_fixed_point():
    w = np.zeros((40, 40))
    w[18:23, 18:23] = 1.0
    win, iters, converged = tr.mean_shift(w, (15, 15, 11, 11))
    assert converged and iters == 1
    assert win == (15, 15, 11, 11)


def test_mean_shift_finds_offset_gaussian_peak():
    ys, xs = np.mgrid[0:60, 0:60]
    rng = np.random.default_rng(0)
    for _ in range(10):
        px, py = rng.uniform(20, 40, 2)
        w = np.exp(-((xs - px) ** 2 + (ys - py) ** 2) / (2 * 4.0**2))
        x0, y0 = int(px - 7) - 5, int(py - 7) + 5  # offset ~5 px
        win, _, converged = tr.mean_shift(w, (x0, y0, 15, 15))
        assert converged
        # exhaustive windowed-sum maximization oracle
        best = max(
            ((x, y) for x in range(45) for y in range(45)),
            key=lambda p: w[p[1] : p[1] + 15, p[0] : p[0] + 15].sum(),
        )
        assert abs(win[0] - best[0]) <= 1 and abs(win[1] - best[1]) <= 1


def test_mean_shift_all_zero_weights():
    w = np.zeros((30, 30))
    win, iters, converged = tr.mean_shift(w, (5, 5, 8, 8))
    assert win == (5, 5, 8, 8)
    assert not converged and iters == 0


def test_mean_shift_weight_sum_non_decreasing():
    rng = np.random.default_rng(1)
    for _ in range(200):
        w = rng.random((30, 30)) ** 3
        x0, y0 = rng.integers(0, 20, 2)
        trace = []
        tr.mean_shift(w, (int(x0), int(y0), 9, 9), trace=trace)
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# particle filter

def test_mspf_static_noiseless_fixed_point():
    frame, fg = _square_person_frame()
    component, silhouette = person_component(fg)
    person = tr.detect_person(component, silhouette, frame, 100)
    particles = tr.init_particles(person, n=20, seed=3)
    cfg = PipelineConfig(particles_sigma_xy=0.0, particles_sigma_scale=0.0)
    out, particles = tr.mspf_track(person, particles, frame, fg, component, cfg)
    assert out.bbox == person.bbox
    assert out.centroid == person.centroid
    assert out.confidence == pytest.approx(1.0)
    assert out.velocity == (0.0, 0.0)


def test_mspf_deterministic_with_seed():
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=45))
    model = sm.learn_scene(frames[:30], var_floor=4.0)

    def run():
        person = particles = None
        outs = []
        for f in frames[30:]:
            fg = sm.detect_foreground(model, f, tau=4.0).bits
            refined, component, silhouette = mo.refine_mask(fg, 300, (3, 3), 1)
            if person is None:
                person = tr.detect_person(component, silhouette, f, 700)
                particles = tr.init_particles(person, 50, seed=11)
            else:
                person, particles = tr.mspf_track(person, particles, f, refined, component, CFG)
            outs.append((person.bbox, person.centroid, person.confidence))
        return outs, particles.states.copy()

    outs1, states1 = run()
    outs2, states2 = run()
    assert outs1 == outs2
    assert np.array_equal(states1, states2)


def test_mspf_coasting_on_empty_foreground():
    frame, fg = _square_person_frame()
    person = tr.detect_person(*person_component(fg), frame, 100)
    person.velocity = (2.0, -1.0)
    person.confidence = 1.0
    particles = tr.init_particles(person, n=10, seed=0)
    empty = np.zeros_like(fg)
    cur = person
    for k in range(1, 6):
        cur, particles = tr.mspf_track(cur, particles, frame, empty, None, CFG)
        assert cur.velocity == (2.0, -1.0)
        assert cur.centroid == (person.centroid[0] + 2.0 * k, person.centroid[1] - 1.0 * k)
        assert cur.confidence == pytest.approx(0.8**k)


def test_torso_disc_from_person():
    person = tr.PersonBlob(
        bbox=(80, 40, 40, 120), centroid=(100.0, 100.0), area=100, ref_hist=np.full(16, 1 / 16)
    )
    disc = tr.torso_from_person(person)
    assert disc.center == (100.0, 100.0)
    assert disc.radius == 20.0


def test_torso_disc_horizontally_inside_bbox():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x, y = rng.integers(0, 50, 2)
        w, h = rng.integers(10, 60, 2)
        cx = x + rng.uniform(0.3, 0.7) * w
        person = tr.PersonBlob(
            bbox=(int(x), int(y), int(w), int(h)),
            centroid=(float(cx), float(y + h / 2)),
            area=10,
            ref_hist=np.full(16, 1 / 16),
        )
        disc = tr.torso_from_person(person)
        assert disc.center[0] - disc.radius >= x - w / 2
        assert disc.center[0] + disc.radius <= x + 1.5 * w


# ---------------------------------------------------------------------------
# the uint8 bin plane and the gathered backprojection against the int64 plane
# and np.where they replace

def _reference_uv_bin_plane(frame):
    u = frame.yuv[:, :, 1] >> 6
    v = frame.yuv[:, :, 2] >> 6
    return (u.astype(np.intp) << 2) | v.astype(np.intp)


def test_uv_bin_plane_is_uint8_and_matches_int64_reference():
    # every (U, V) pair once, then random frames
    u, v = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    yuv = np.stack([np.zeros_like(u), u, v], axis=-1).astype(np.uint8)
    frame = frame_from_rgb(np.zeros((256, 256, 3), np.uint8))
    frame.yuv = yuv
    rng = np.random.default_rng(5)
    frames = [frame] + [
        frame_from_rgb(rng.integers(0, 256, size=shape).astype(np.uint8))
        for shape in ((1, 1, 3), (7, 3, 3), (240, 320, 3))
    ]
    for f in frames:
        plane = f.uv_bins
        assert plane.dtype == np.uint8
        assert np.array_equal(plane, _reference_uv_bin_plane(f))
    assert set(np.unique(frame.uv_bins)) == set(range(16))


def test_uv_bin_plane_is_cached_on_the_frame():
    frame, _ = _square_person_frame()
    plane = frame.uv_bins
    assert frame.uv_bins is plane
    assert not plane.flags.writeable
    hist = tr.color_hist16(frame, (40, 30, 31, 31))
    weights = tr.back_project(frame, hist)
    assert weights.dtype == np.float64
    assert weights.tobytes() == hist[_reference_uv_bin_plane(frame)].tobytes()
    assert frame.uv_bins is plane


def _walker_steps(frames=60):
    """(prev, particles, frame, fg, component) for each tracked walker frame."""
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=frames, seed=4))
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    person = particles = None
    for f in frames[30:]:
        fg = sm.detect_foreground(model, f, tau=4.0).bits
        refined, component, silhouette = mo.refine_mask(fg, 300, (3, 3), 1)
        if person is None:
            person = tr.detect_person(component, silhouette, f, 700)
            if person is not None:
                particles = tr.init_particles(person, 40, seed=9)
            continue
        yield person, copy.deepcopy(particles), f, refined, component
        person, particles = tr.mspf_track(person, particles, f, refined, component, CFG)


def test_particle_weights_match_int64_plane():
    rng = np.random.default_rng(6)
    steps = 0
    for prev, particles, frame, _, _ in _walker_steps(45):
        states = particles.states + rng.normal(0.0, 8.0, particles.states.shape)
        states[:, 2] = np.clip(states[:, 2], 0.2, 3.0)
        states[::7, 0] = -40.0  # windows clipped at the frame border
        sqrt_ref = np.sqrt(prev.ref_hist)
        got = tr._particle_weights(frame.uv_bins, states, particles.ref_size, sqrt_ref)
        want = tr._particle_weights(
            _reference_uv_bin_plane(frame), states, particles.ref_size, sqrt_ref
        )
        assert got.tobytes() == want.tobytes()
        steps += 1
    assert steps >= 10


def test_mspf_track_matches_int64_where_reference(monkeypatch):
    """Backprojection, blob and particles equal those of the int64 plane and
    the full-frame np.where."""
    seen = []
    mean_shift = tr.mean_shift

    def spy(weights, window, *args, **kwargs):
        seen.append(weights)
        return mean_shift(weights, window, *args, **kwargs)

    monkeypatch.setattr(tr, "mean_shift", spy)
    compared = 0
    for prev, particles, frame, fg, component in _walker_steps():
        twin = copy.deepcopy(particles)
        seen.clear()
        out, parts = tr.mspf_track(prev, particles, frame, fg, component, CFG)
        (wimg,) = seen
        want = np.where(fg, prev.ref_hist[_reference_uv_bin_plane(frame)], 0.0)
        assert wimg.dtype == np.float64 and wimg.tobytes() == want.tobytes()
        ref_frame = copy.copy(frame)
        ref_frame.uv_bins = _reference_uv_bin_plane(frame)
        ref_out, ref_parts = tr.mspf_track(prev, twin, ref_frame, fg, component, CFG)
        for key in ("bbox", "centroid", "area", "confidence", "velocity"):
            assert getattr(out, key) == getattr(ref_out, key)
        assert parts.states.tobytes() == ref_parts.states.tobytes()
        compared += 1
    assert compared >= 20


# ---------------------------------------------------------------------------
# integral-histogram particle weights against the per-particle loop they replace

def _reference_state_rect(state, ref_size, width, height):
    """One state's window, with Python's round (half to even)."""
    w = max(2, int(round(ref_size[0] * state[2])))
    h = max(2, int(round(ref_size[1] * state[2])))
    x = int(round(state[0] - (w - 1) / 2.0))
    y = int(round(state[1] - (h - 1) / 2.0))
    return tr._clip_rect((x, y, w, h), width, height)


def test_state_windows_match_per_state_reference():
    rng = np.random.default_rng(29)
    n = 20000
    states = np.column_stack(
        [rng.uniform(-20, 340, n), rng.uniform(-20, 260, n), rng.uniform(0.2, 3.0, n)]
    )
    tie = rng.random(n) < 0.3  # exact .5 positions, where rounding ties
    states[tie, :2] = np.floor(states[tie, :2]) + 0.5
    for ref_size in ((31, 77), (40, 80), (1, 2), (400, 300)):
        got = np.column_stack(tr._state_windows(states, ref_size, 240, 320))
        want = [_reference_state_rect(s, ref_size, 320, 240) for s in states]
        assert got.tolist() == [list(r) for r in want], ref_size


def _reference_particle_weights(plane, states, ref_size, sqrt_ref):
    height, width = plane.shape
    weights = np.zeros(len(states))
    for i, state in enumerate(states):
        x, y, w, h = _reference_state_rect(state, ref_size, width, height)
        counts = np.bincount(plane[y : y + h, x : x + w].ravel(), minlength=tr.N_BINS)[
            : tr.N_BINS
        ]
        total = counts.sum()
        if total:
            weights[i] = float((np.sqrt(counts / total) * sqrt_ref).sum())
    return weights


def _reference_hists(rng, prev):
    """The tracked reference, one with a single bin and one with all 16 bins."""
    one = np.zeros(tr.N_BINS)
    one[int(rng.integers(tr.N_BINS))] = 1.0
    full = rng.random(tr.N_BINS) + 0.01
    return prev.ref_hist, one, full / full.sum()


def test_particle_weights_match_per_particle_reference():
    rng = np.random.default_rng(17)
    steps = 0
    for prev, particles, frame, _, _ in _walker_steps(50):
        plane = frame.uv_bins
        states = particles.states + rng.normal(0.0, 8.0, particles.states.shape)
        states[:, 2] = np.clip(states[:, 2], 0.2, 3.0)
        states[::7, 0] = -40.0  # windows clipped at the left border
        states[1::7, 1] = frame.height + 15.0  # and at the bottom one
        states[2::7, 2] = 0.2
        states[3::7, 2] = 3.0  # wider than the frame is high
        states[4::7, :2] = np.round(states[4::7, :2]) + 0.5  # rounding ties
        for ref in _reference_hists(rng, prev):
            sqrt_ref = np.sqrt(ref)
            for ref_size in (particles.ref_size, (1, 1), (frame.width * 2, 3)):
                got = tr._particle_weights(plane, states, ref_size, sqrt_ref)
                want = _reference_particle_weights(plane, states, ref_size, sqrt_ref)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        steps += 1
    assert steps >= 10


def test_particle_weights_on_a_tiny_frame():
    rng = np.random.default_rng(18)
    plane = rng.integers(0, tr.N_BINS, size=(3, 2)).astype(np.uint8)
    states = np.column_stack(
        [rng.uniform(-2, 4, 30), rng.uniform(-2, 5, 30), rng.uniform(0.2, 3.0, 30)]
    )
    sqrt_ref = np.sqrt(np.full(tr.N_BINS, 1.0 / tr.N_BINS))
    got = tr._particle_weights(plane, states, (2, 3), sqrt_ref)
    assert got.tobytes() == _reference_particle_weights(plane, states, (2, 3), sqrt_ref).tobytes()


@pytest.mark.parametrize("shape", [(256, 256), (255, 257)])  # areas 2**16 and 2**16 - 1
def test_particle_weights_at_a_lane_boundary(shape):
    """A 16-bin reference over a union whose area fills a bit field: 17- and
    16-bit fields, three bins to a lane, six lanes. One window is the whole
    union, so a bin that holds every pixel puts the area itself in its field."""
    rng = np.random.default_rng(19)
    height, width = shape
    assert (height * width).bit_length() in (16, 17)
    states = np.column_stack(
        [rng.uniform(0, width, 40), rng.uniform(0, height, 40), rng.uniform(0.2, 1.0, 40)]
    )
    states[0] = ((width - 1) / 2.0, (height - 1) / 2.0, 1.0)
    ref = rng.random(tr.N_BINS) + 0.01
    sqrt_ref = np.sqrt(ref / ref.sum())
    noisy = rng.integers(0, tr.N_BINS, size=shape).astype(np.uint8)
    for plane in [noisy] + [np.full(shape, b, np.uint8) for b in (0, 2, 3, 14, 15)]:
        got = tr._particle_weights(plane, states, shape[::-1], sqrt_ref)
        want = _reference_particle_weights(plane, states, shape[::-1], sqrt_ref)
        assert got.tobytes() == want.tobytes()


def test_coasting_out_of_the_frame_ends_the_track():
    frame, fg = _square_person_frame()
    empty = np.zeros_like(fg)
    particles = tr.init_particles(
        tr.PersonBlob(bbox=(100, 30, 20, 40), centroid=(110.0, 50.0), area=800,
                      ref_hist=np.full(16, 1 / 16)), 10, seed=1
    )
    for velocity, inside in (((9.0, 0.0), True), ((10.5, 0.0), False), ((0.0, -51.0), False)):
        prev = tr.PersonBlob(
            bbox=(100, 30, 20, 40), centroid=(110.0, 50.0), area=800,
            ref_hist=np.full(16, 1 / 16), velocity=velocity,
        )
        person, parts = tr.mspf_track(prev, particles, frame, empty, None, CFG)
        if inside:
            assert person.centroid == (119.0, 50.0) and parts is particles
        else:
            assert person is None and parts is None
