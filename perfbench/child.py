"""Run one ``hbpt track`` in this process and write its timings as JSON.

Usage: child.py MODE SRC_DIR RESULT_JSON [track arguments ...]

MODE is one of
  plain  no probe at all;
  clock  the frame clock: one timestamp at each call into
         scene.detect_foreground, the first layer call of every frame;
  setup  the frame clock, stopping the run when the first frame enters
         scene.detect_foreground, so that only set-up is timed;
  trace  a span around every public function of every layer module, bound
         by name wherever a module imported it, kept in memory and written
         to RESULT_JSON when the run ends.

The track call itself goes through hbpt.cli.main, as ``hbpt track`` does.
"""

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time

# Modules under src/hbpt that do pipeline work. synthgen and config only build
# inputs, so they are left unwrapped.
LAYERS = (
    "imageio",
    "scene",
    "maskops",
    "tracker",
    "blobmodel",
    "bodyparts",
    "activity",
    "baseline",
    "cli",
)


# per-call values kept on the span, read from the call's result
PROBES = {
    "scene.detect_foreground": lambda fg: float(fg.bits.mean()),
    "tracker.mean_shift": lambda out: [out[1], bool(out[2])],  # iterations, converged
    "activity.lk_flow": lambda out: [len(out[1]), float(out[1].mean()) if len(out[1]) else 0.0],
    "bodyparts.build_part_model": lambda model: sorted(model.blobs),
}

FRAME_START = "scene.detect_foreground"


class SetupDone(Exception):
    """Raised by the frame clock in setup mode to end the run at frame 0."""


class Tracer:
    """Spans [name, start, end, parent span index, frame index, probe value]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.frame = -1
        self.label_calls = 0  # calls into scipy.ndimage.label

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = PROBES.get(name)
        starts_frame = name == FRAME_START

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if starts_frame:
                self.frame += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.frame, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                rec[5] = probe(out)
            return out

        return span

    def install(self):
        mods = {name: importlib.import_module(f"hbpt.{name}") for name in LAYERS}
        names = {}
        for modname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    names[obj] = f"{modname}.{attr}"
        # Replace every binding, including names imported from another layer,
        # so calls made through them are counted too. Activity reuses tracker's
        # histogram and mean-shift code to track the box; those calls are box
        # tracking, so they are named after activity, apart from person tracking.
        for modname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in names:
                    name = names[obj]
                    if modname == "activity":
                        name = f"activity.{attr}"
                    setattr(mod, attr, self.wrap(name, obj))
        monitor = mods["activity"].ActivityMonitor
        monitor.process = self.wrap("activity.process", monitor.process)

        ndimage = mods["maskops"].ndimage
        label = ndimage.label

        @functools.wraps(label)
        def counted_label(*args, **kwargs):
            self.label_calls += 1
            return label(*args, **kwargs)

        ndimage.label = counted_label


def main(argv):
    mode, src, result_path, *track_args = argv
    sys.path.insert(0, src)
    from hbpt import cli, scene

    stamps = []
    tracer = None
    if mode in ("clock", "setup"):
        detect = scene.detect_foreground

        @functools.wraps(detect)
        def clocked(*args, **kwargs):
            stamps.append(time.perf_counter())
            if mode == "setup":
                raise SetupDone
            return detect(*args, **kwargs)

        scene.detect_foreground = clocked
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    cpu_call = time.process_time()
    t_call = time.perf_counter()
    try:
        rc = cli.main(["track", *track_args])
    except SetupDone:
        rc = 0
    t_end = time.perf_counter()
    cpu_s = time.process_time() - cpu_call

    result = {
        "mode": mode,
        "rc": rc,
        "t_call": t_call,
        "t_end": t_end,
        "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": len(os.listdir("/proc/self/task")),
        "stamps": stamps,
    }
    if tracer is not None:
        result["stamps"] = [s[1] for s in tracer.spans if s[0] == FRAME_START]
        result["spans"] = tracer.spans
        result["label_calls"] = tracer.label_calls
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
