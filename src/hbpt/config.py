"""Flat key=value pipeline configuration. ``PipelineConfig`` holds the only
default of every setting; the pipeline's stages take their settings from it.

Config files hold one ``key = value`` pair per line ('#' starts a comment,
except inside a quoted value). A key is its field's name, with the '_' after
a section name written as '.': ``scene.tau`` sets ``scene_tau``, ``seed``
sets ``seed``.
Values may be numbers, true/false, quoted strings or [a, b, c] number lists.
Unknown keys are rejected. CLI flags override file values.
"""

import math
from dataclasses import dataclass, field, fields


_SECTIONS = ("scene", "learn", "mask", "person", "particles", "parts", "activity", "box")


@dataclass
class PipelineConfig:
    input: str = ""
    output: str = ""
    pattern: str = "frame_*.ppm"
    seed: int = 0
    learn_frames: int = 30
    scene_var_floor: float = 4.0
    scene_tau: float = 4.0
    scene_alpha: float = 0.05
    mask_min_area_frac: float = 0.005
    mask_se: int = 3
    mask_iterations: int = 1
    person_min_area_frac: float = 0.01
    particles_n: int = 100
    particles_sigma_xy: float = 5.0
    particles_sigma_scale: float = 0.02
    particles_iou_gate: float = 0.3
    parts_min_area: int = 15
    activity_d_xy: float = 30.0
    activity_z_gate_mm: float = 300.0
    activity_approach_frames: int = 3
    activity_theta_open: float = 0.4
    activity_open_frames: int = 5
    activity_carry_frames: int = 5
    activity_carry_min_disp: float = 1.0
    activity_carry_z_rate_mm: float = 200.0
    box_rect: list = field(default_factory=list)  # [x, y, w, h]; empty = no box
    box_ref_frame: int = 0
    emit_overlays: bool = False
    baseline_mode: bool = False  # also emit contour-vertex labels during track


def _key(name):
    """The config key of field ``name``: ``section.rest`` for a name
    ``section_rest``, otherwise the name itself."""
    section, _, rest = name.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else name


_FIELDS = {_key(f.name): f for f in fields(PipelineConfig)}  # config key -> field


def _parse_value(text):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [] if not inner else [_parse_value(v) for v in inner.split(",")]
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integral(value):
    """An int, or a float with no fractional part."""
    return _is_number(value) and (not isinstance(value, float) or value.is_integer())


def _coerce(kind, value):
    """Check a parsed value against a field's type ``kind``; numbers are converted."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"expects true/false, got {value!r}")
    elif kind is int:
        if not _is_integral(value):
            raise ValueError(f"expects an integer, got {value!r}")
        return int(value)
    elif kind is float:
        if not _is_number(value):
            raise ValueError(f"expects a number, got {value!r}")
        return float(value)
    elif kind is str:
        if not isinstance(value, str):
            raise ValueError(f"expects a string, got {value!r}")
    elif kind is list:
        if not isinstance(value, list) or value and (
            len(value) != 4 or not all(_is_integral(v) for v in value)
        ):
            raise ValueError(f"expects [] or 4 integers, got {value!r}")
        return [int(v) for v in value]
    return value


def _strip_comment(raw, lineno):
    """The line up to its comment: a '#' outside a quoted value starts one."""
    key, eq, value = raw.partition("=")
    body = value.lstrip()
    if "#" in key or body[:1] not in ("'", '"'):
        return raw.split("#", 1)[0].strip()
    end = body.find(body[0], 1)
    if end < 0:
        raise ValueError(f"line {lineno}: unterminated quote in {raw!r}")
    return (key + eq + body[: end + 1] + body[end + 1 :].split("#", 1)[0]).strip()


def parse_config_text(text):
    """The default config with key=value lines applied, rejecting unknown keys."""
    cfg = PipelineConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw, lineno)
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        f = _FIELDS[key]
        try:
            setattr(cfg, f.name, _coerce(f.type, _parse_value(value)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key} {exc}") from None
    return cfg


def check_ranges(cfg):
    """Reject out-of-range values that need no input to judge.

    Raises ValueError naming the config key.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is float and not math.isfinite(value):
            raise ValueError(f"{_key(f.name)} must be finite, got {value}")
    if not 0.0 < cfg.scene_alpha < 1.0:
        raise ValueError(f"scene.alpha must lie in (0, 1), got {cfg.scene_alpha}")
    if not cfg.scene_tau > 0.0:
        raise ValueError(f"scene.tau must be positive, got {cfg.scene_tau}")
    if not cfg.scene_var_floor > 0.0:
        raise ValueError(f"scene.var_floor must be positive, got {cfg.scene_var_floor}")
    if cfg.learn_frames < 2:
        raise ValueError(
            f"learn.frames must be at least 2 to learn a scene, got {cfg.learn_frames}"
        )
    if cfg.mask_se < 1 or cfg.mask_se % 2 == 0:
        raise ValueError(f"mask.se must be odd and positive, got {cfg.mask_se}")
    if cfg.mask_iterations < 1:
        raise ValueError(f"mask.iterations must be at least 1, got {cfg.mask_iterations}")
    if cfg.particles_n < 1:
        raise ValueError(f"particles.n must be at least 1, got {cfg.particles_n}")
    for key in ("mask.min_area_frac", "person.min_area_frac"):
        value = getattr(cfg, key.replace(".", "_"))
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{key} must lie in [0, 1], got {value}")
    for key in ("particles.iou_gate", "activity.theta_open"):
        value = getattr(cfg, key.replace(".", "_"))
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{key} must lie in [0, 1), got {value}")
    for key in ("activity.approach_frames", "activity.open_frames", "activity.carry_frames"):
        value = getattr(cfg, key.replace(".", "_"))
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
    for key in (
        "seed",
        "parts.min_area",
        "particles.sigma_xy",
        "particles.sigma_scale",
        "activity.d_xy",
        "activity.z_gate_mm",
        "activity.carry_min_disp",
        "activity.carry_z_rate_mm",
    ):
        value = getattr(cfg, key.replace(".", "_"))
        if not value >= 0:
            raise ValueError(f"{key} must not be negative, got {value}")


def check_box(cfg, width, height, frames):
    """Reject a box that does not fit a ``width`` x ``height`` sequence of
    ``frames`` frames. Raises ValueError naming the config key."""
    if not cfg.box_rect:
        return
    x, y, w, h = cfg.box_rect
    if w <= 0 or h <= 0:
        raise ValueError(f"box.rect needs a positive width and height, got {cfg.box_rect}")
    if x < 0 or y < 0 or x + w > width or y + h > height:
        raise ValueError(f"box.rect {cfg.box_rect} does not fit the {width}x{height} frame")
    if not 0 <= cfg.box_ref_frame < frames:
        raise ValueError(
            f"box.ref_frame must lie in [0, {frames}) for {frames} frames, "
            f"got {cfg.box_ref_frame}"
        )


def load_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read())
