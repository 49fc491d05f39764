"""Workloads, the per-operation correctness gate, and result assembly.

One operation is one restore of one frame, made as an in-process
`depthrestore.cli.main(["restore", ...])` call with stdout captured,
so it crosses cli, image_model, preprocess, edge_analysis, filters and
pipeline exactly as a user's call does. Each workload is a closed loop
of one caller doing one frame after another.

Inputs are synthesized in set-up from the benchmark seed and written
as PGM/PPM files; the program sees only those files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from depthrestore import cli
from depthrestore.errors import ContractViolation, FormatError
from depthrestore.evaluate import DegradeSpec, compare, degrade, discontinuity_mask, mae, make_scene
from depthrestore.image_model import HOLE, ColorImage, DepthMap, load_depth_pgm, save_color_ppm, save_depth_pgm
from depthrestore.preprocess import chebyshev_dilate

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7
SMOKE_SIZE = (64, 48)  # (width, height) of every workload's --smoke frame
BAD_PIXEL_TAU = 10.0
EDGE_BAND_RADIUS = 2
REPORT_INT_KEYS = ("holes_initial", "holes_filled", "holes_unfilled", "fill_passes_used",
                   "nonhole_nonedge", "nonhole_edge", "hole_nonedge", "hole_edge")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str            # make_scene kind, or "tiles" for the checkerboard built here
    size: tuple           # (width, height)
    hole: int = 0         # side of a central square hole punched after degradation
    multithread: bool = False

    def threads(self) -> int:
        return nproc() if self.multithread else 1


# Why each workload exists is declared in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("occluder-vga", "occluder", (640, 480)),
    Workload("ramp-hole-qvga", "ramp", (320, 240), hole=80),
    Workload("tiles-vga-mt", "tiles", (640, 480), multithread=True),
)}


def make_tiles(width: int, height: int) -> tuple[DepthMap, ColorImage]:
    """Checkerboard of 1000/1800 mm tiles with guide colors 64/192.

    Tiles are 40 px at 640 wide and scale with the width, so a smoke
    frame keeps several tiles.
    """
    tile = max(8, width // 16)
    yy, xx = np.indices((height, width))
    odd = ((yy // tile) + (xx // tile)) % 2 == 1
    depth = np.where(odd, 1800.0, 1000.0)
    color = np.repeat(np.where(odd, 192, 64).astype(np.uint8)[..., None], 3, axis=2)
    return DepthMap(depth), ColorImage(color)


@dataclass
class Inputs:
    clean: DepthMap
    degraded: DepthMap
    edge_band: np.ndarray
    depth_path: str
    guide_path: str
    degrade_s: float


def central_square(shape, side: int) -> np.ndarray:
    h, w = shape
    mask = np.zeros(shape, dtype=bool)
    r0, c0 = (h - side) // 2, (w - side) // 2
    mask[r0:r0 + side, c0:c0 + side] = True
    return mask


def make_inputs(wl: Workload, seed: int, smoke: bool, workdir: str) -> Inputs:
    """Synthesize, degrade and write one workload's input files."""
    width, height = SMOKE_SIZE if smoke else wl.size
    if wl.scene == "tiles":
        clean, color = make_tiles(width, height)
    else:
        clean, color = make_scene(wl.scene, width, height)
    spec = DegradeSpec(noise_sigma=20, speckle_hole_fraction=0.05, edge_hole_radius=2,
                       seed=seed)
    t0 = time.perf_counter()
    degraded = degrade(clean, spec)
    degrade_s = time.perf_counter() - t0
    # A smoke frame keeps the hole's share of the frame width.
    side = wl.hole * width // wl.size[0]
    band = chebyshev_dilate(discontinuity_mask(clean), EDGE_BAND_RADIUS)
    if side:
        punched = central_square(clean.samples.shape, side)
        samples = degraded.samples.copy()
        samples[punched] = HOLE
        degraded = DepthMap(samples)
        # A ramp has no depth discontinuity; its hardest seam is the rim of the
        # punched hole, where the fill meets measured depth.
        band = band | (chebyshev_dilate(punched, EDGE_BAND_RADIUS)
                       & chebyshev_dilate(~punched, EDGE_BAND_RADIUS))
    depth_path = os.path.join(workdir, "depth.pgm")
    guide_path = os.path.join(workdir, "guide.ppm")
    save_depth_pgm(degraded, depth_path)
    save_color_ppm(color, guide_path)
    return Inputs(clean, degraded, band, depth_path, guide_path, degrade_s)


def parse_report(text: str) -> dict:
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and key.strip() in REPORT_INT_KEYS:
            report[key.strip()] = int(value)
    return report


@dataclass
class OpResult:
    seconds: float
    ok: bool
    sha256: str | None
    report: dict
    why: str = ""


class Gate:
    """Per-operation correctness checks; the first operation sets the hash."""

    def __init__(self, inputs: Inputs):
        valid = inputs.degraded.samples[inputs.degraded.samples != HOLE]
        self.lo, self.hi = float(valid.min()), float(valid.max())
        self.reference: str | None = None
        self.first_output: DepthMap | None = None

    def check(self, rc, out_path: str, report: dict) -> tuple[bool, str, str | None]:
        if rc != 0:
            return False, f"main returned {rc}", None
        try:
            with open(out_path, "rb") as f:
                data = f.read()
            restored = load_depth_pgm(out_path)
        except (OSError, FormatError, ContractViolation) as e:
            return False, f"output does not decode: {e}", None
        sha = hashlib.sha256(data).hexdigest()
        if self.reference is None:
            self.reference = sha
            self.first_output = restored
        elif sha != self.reference:
            return False, f"output sha256 {sha} differs from first operation", sha
        s = restored.samples
        if s.min() < self.lo or s.max() > self.hi:
            return False, (f"output range [{s.min()}, {s.max()}] outside input valid "
                           f"range [{self.lo}, {self.hi}]"), sha
        if any(k not in report for k in REPORT_INT_KEYS):
            return False, "report is missing keys", sha
        if report["holes_filled"] + report["holes_unfilled"] != report["holes_initial"]:
            return False, "holes_filled + holes_unfilled != holes_initial", sha
        return True, "", sha


def run_op(inputs: Inputs, threads: int, gate: Gate, out_path: str,
           tracer: spans.Tracer | None = None) -> OpResult:
    """One restore through the CLI entry point, timed, then gated."""
    argv = ["restore", inputs.depth_path, inputs.guide_path, out_path,
            "--threads", str(threads)]
    captured = io.StringIO()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span(spans.ROOT_SPAN):
                    rc = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rc = "exception"
    seconds = time.perf_counter() - t0
    report = parse_report(captured.getvalue())
    ok, why, sha = gate.check(rc, out_path, report)
    if os.path.exists(out_path):
        os.unlink(out_path)
    if not ok:
        print(f"operation failed: {why}", file=sys.stderr)
    return OpResult(seconds, ok, sha, report, why)


def quality_metrics(inputs: Inputs, restored: DepthMap) -> dict:
    holes = inputs.degraded.samples == HOLE
    q = compare(inputs.clean, restored, tau=BAD_PIXEL_TAU)
    return {
        "psnr_db": q.psnr_db,
        "mae_mm": q.mae_mm,
        "bad_pixel_rate": q.bad_pixel_rate,
        "fill_mae_mm": mae(inputs.clean, restored, holes),
        "edge_band_mae_mm": mae(inputs.clean, restored, inputs.edge_band),
    }


def environment(seed: int, threads: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files, to name the code without git."""
    h = hashlib.sha256()
    src = ROOT / "src" / "depthrestore"
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Set up, run the closed loop, and return the result record."""
    threads = wl.threads()
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root)
    try:
        return _run_in(wl, seed, seconds, trace, smoke, threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(wl, seed, seconds, trace, smoke, threads, workdir) -> dict:
    setup_times = []
    degrade_times = []
    repeat_dir = os.path.join(workdir, "repeat")
    os.mkdir(repeat_dir)

    def set_up(directory) -> Inputs:
        t0 = time.perf_counter()
        made = make_inputs(wl, seed, smoke, directory)
        setup_times.append(time.perf_counter() - t0)
        degrade_times.append(made.degrade_s)
        return made

    def set_up_again() -> float:
        """One more set-up, while repeats are due; returns the time it took."""
        if len(setup_times) >= SETUP_REPEATS:
            return 0.0
        set_up(repeat_dir)
        return setup_times[-1]

    inputs = set_up(workdir)
    gate = Gate(inputs)
    out_path = os.path.join(workdir, "out.pgm")

    # The first operation warms up lazy imports and sets the reference
    # hash; it is untimed and measures peak traced memory instead.
    tracemalloc.start()
    first = run_op(inputs, threads, gate, out_path)
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    ops = [first]
    # The other set-ups are spread between operations, one after each, so
    # that their median samples the machine over the whole run and not
    # over one stretch of it. The loop clock leaves them out.
    set_up_again()

    untraced: list[OpResult] = []
    traced: list[tuple[OpResult, list]] = []
    tracer = spans.Tracer()
    t_start = time.perf_counter()
    set_up_s = 0.0
    while not untraced or time.perf_counter() - t_start - set_up_s < seconds:
        untraced.append(run_op(inputs, threads, gate, out_path))
        if trace:
            # Alternate so that traced and untraced ops see the same machine.
            tracer.op = len(traced)
            mark = len(tracer.spans)
            with tracer.installed():
                res = run_op(inputs, threads, gate, out_path, tracer)
            traced.append((res, tracer.spans[mark:]))
        set_up_s += set_up_again()
    while set_up_again():
        pass
    ops += untraced + [r for r, _ in traced]

    failed = sum(not r.ok for r in ops)
    h, w = inputs.clean.samples.shape
    restore_s = statistics.median(r.seconds for r in untraced)
    record = {
        "workload": wl.name,
        "smoke": smoke,
        "frame": [w, h],
        "environment": environment(seed, threads),
        "output_sha256": gate.reference,
        "attempted": len(ops),
        "failed": failed,
        "ops_failed": failed / len(ops),
        "holes_unfilled": first.report.get("holes_unfilled"),
        "restore_samples_s": [r.seconds for r in untraced],
        "setup_samples_s": setup_times,
        "failures": [r.why for r in ops if not r.ok],
    }
    if not trace:
        metrics = {
            "restore_s": restore_s,
            "mpix_per_s": w * h / 1e6 / restore_s,
            "setup_s": statistics.median(setup_times),
            "peak_mem_mb": peak_bytes / 1e6,
        }
        if gate.first_output is not None:
            metrics.update(quality_metrics(inputs, gate.first_output))
    else:
        per_op = [spans.op_layer_metrics(op_spans, res.report, res.seconds)
                  for res, op_spans in traced if res.ok]
        metrics = {}
        if per_op:
            metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        metrics["evaluate.degrade_s"] = statistics.median(degrade_times)
        metrics["trace.overhead_s"] = (statistics.median(r.seconds for r, _ in traced)
                                       - restore_s)
        record["spans"] = tracer.dump()
    record["metrics"] = metrics
    return record


def write_result(record: dict, trace: bool) -> Path:
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    seed = record["environment"]["seed"]
    smoke = "-smoke" if record["smoke"] else ""
    path = out_dir / f"{record['workload']}{smoke}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path
