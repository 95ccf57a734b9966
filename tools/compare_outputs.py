"""Byte-compare the inputs and outputs of two checkouts of hbpt.

Usage: python3 tools/compare_outputs.py PARENT CHANGE WORKDIR

For every synthetic scenario at seeds 1, 3 and 7, each checkout renders the
scenario with its own ``hbpt synth`` and tracks it with its own
``hbpt track --overlays``, with ``baseline_mode = true`` and, where the
scenario has one, the box from its truth.json. The two checkouts run side by
side, one process each, from their ``src`` directories and without writing
bytecode. Every file of the input and output trees is then compared, apart
from metrics.json, which holds timings. One line is printed per scenario and
seed; the exit status is 1 when any file differs or any run fails.

Runs are written under WORKDIR/parent and WORKDIR/change, one directory per
scenario and seed, emptied before the run starts, next to its track config.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 3, 7)
SIDES = ("parent", "change")
SKIP = {Path("out") / "metrics.json"}


def _env(checkout):
    return {
        **os.environ,
        "PYTHONPATH": str(Path(checkout).resolve() / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def _scenario_names(checkout, workdir):
    out = subprocess.run(
        [sys.executable, "-c", "from hbpt.synthgen import SCENARIO_NAMES; print(*SCENARIO_NAMES)"],
        env=_env(checkout), cwd=workdir, capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


def _hbpt(checkout, run, *args):
    # run from the run directory: ``-m`` puts the working directory first on
    # sys.path, and a package found there would shadow the checkout's
    return subprocess.Popen(
        [sys.executable, "-m", "hbpt.cli", *args],
        env=_env(checkout), cwd=run, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )


def _wait_all(procs):
    """Wait for one process per side; the failed sides, each with its last
    stderr line."""
    failed = []
    for side, proc in procs.items():
        _, err = proc.communicate()
        if proc.returncode != 0:
            lines = err.strip().splitlines()
            failed.append(f"{side} exit {proc.returncode}: {lines[-1] if lines else ''}")
    return failed


def _config(run):
    lines = ["baseline_mode = true"]
    box = json.loads((run / "in" / "truth.json").read_text()).get("box")
    if box:
        lines += [f"box.rect = {box['rect']}", f"box.ref_frame = {box['ref_frame']}"]
    path = run.with_suffix(".cfg")
    path.write_text("\n".join(lines) + "\n")
    return path


def _files(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()} - SKIP


def _compare(runs):
    """(files compared, paths that differ or exist on one side only)."""
    trees = {side: _files(run) for side, run in runs.items()}
    both = trees["parent"] & trees["change"]
    diff = sorted(trees["parent"] ^ trees["change"])
    diff += sorted(
        p for p in both if not filecmp.cmp(runs["parent"] / p, runs["change"] / p, shallow=False)
    )
    return len(both), diff


def _compare_run(checkouts, workdir, scenario, seed):
    runs = {side: workdir / side / f"{scenario}_s{seed}" for side in SIDES}
    for run in runs.values():
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir(parents=True)
    failed = _wait_all({
        side: _hbpt(checkouts[side], run, "synth", "--scenario", scenario, "--seed", str(seed),
                    "--output", str(run / "in"))
        for side, run in runs.items()
    })
    if not failed:
        failed = _wait_all({
            side: _hbpt(checkouts[side], run, "track", "--overlays", "--config", str(_config(run)),
                        "--input", str(run / "in"), "--output", str(run / "out"))
            for side, run in runs.items()
        })
    if failed:
        return False, "FAILED " + "; ".join(failed)
    n, diff = _compare(runs)
    if diff:
        shown = ", ".join(str(p) for p in diff[:5])
        return False, f"DIFFER in {len(diff)} of {n} files: {shown}"
    return True, f"identical ({n} files)"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change, workdir = argv
    checkouts = {"parent": parent, "change": change}
    workdir = Path(workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    ok_all = True
    for scenario in _scenario_names(change, workdir):
        for seed in SEEDS:
            ok, msg = _compare_run(checkouts, workdir, scenario, seed)
            ok_all &= ok
            print(f"{scenario} seed {seed}: {msg}", flush=True)
    print("all identical" if ok_all else "outputs differ or runs failed")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
