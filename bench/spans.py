"""Spans recorded around the program's module boundaries, from outside.

The traced run swaps the module attributes that `restore` reaches for
recording wrappers and puts the originals back when it ends, so the
program itself carries no tracing code and untraced runs pay nothing.
Each span holds name, start, end, parent, thread and operation id.
Spans live in memory until the run writes them out.

A module attribute is patched where it is looked up, not where it is
defined: `pipeline.restore` calls `close_depth` through the name bound
in `depthrestore.pipeline`, and `cli` calls the Netpbm functions
through its own bindings.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

ROOT_SPAN = "cli.main"

# (module, attribute, span name) for every plain function wrapped.
PLAIN_TARGETS = (
    ("depthrestore.cli", "load_depth_pgm", "image_model.load"),
    ("depthrestore.cli", "load_color_ppm", "image_model.load"),
    ("depthrestore.cli", "save_depth_pgm", "image_model.save"),
    ("depthrestore.cli", "restore", "pipeline.restore"),
    ("depthrestore.pipeline", "close_depth", "preprocess.close"),
    ("depthrestore.pipeline", "expand_holes", "preprocess.expand"),
    ("depthrestore.pipeline", "sobel_gradients", "edge_analysis.sobel"),
    ("depthrestore.pipeline", "detect_edges", "edge_analysis.detect"),
    ("depthrestore.pipeline", "classify_regions", "edge_analysis.classify"),
    ("depthrestore.pipeline", "nearest_edge_theta", "edge_analysis.nearest_theta"),
    ("depthrestore.pipeline", "filter_non_hole", "filters.denoise"),
    ("depthrestore.pipeline", "fill_holes", "pipeline.fill"),
)
# run_banded hands each row band to a worker thread; window_sums is
# the engine. Both are reached from two modules, and the module says
# which stage the call serves: filters for denoise, pipeline for fill.
BANDED_TARGETS = (
    ("depthrestore.filters", "run_banded", "filters.run_banded"),
    ("depthrestore.pipeline", "run_banded", "pipeline.run_banded"),
)
ENGINE_TARGETS = (
    ("depthrestore.filters", "window_sums", "filters.window_sums"),
    ("depthrestore.pipeline", "window_sums", "pipeline.window_sums"),
)
ALL_TARGETS = PLAIN_TARGETS + BANDED_TARGETS + ENGINE_TARGETS


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def engine_flavor(via: str, kwargs: dict) -> str:
    """Tell window_sums calls apart by caller and keyword arguments."""
    if via.startswith("pipeline."):
        return "fill"
    if kwargs.get("depth_sigma") is not None:
        return "trilateral"
    if kwargs.get("cos_t") is not None:
        return "directional"
    return "isotropic"


class Tracer:
    """Records spans while installed; see module doc."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _current(self):
        return getattr(self._local, "parent", None)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record one span; yields its id so callees can adopt it."""
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = self._current()
        self._local.parent = sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._local.parent = parent
            span = Span(sid, name, start, end, parent, threading.get_ident(),
                        self.op, attrs or {})
            with self._lock:
                self.spans.append(span)

    def _plain(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _banded(self, fn, name):
        def traced(height, threads, job):
            bands = []
            with self.span(name, {"bands": bands}) as sid:
                def adopted(row0, row1):
                    # Worker threads start with no parent; give them this span.
                    prev = self._current()
                    self._local.parent = sid
                    bands.append((row0, row1))
                    try:
                        return job(row0, row1)
                    finally:
                        self._local.parent = prev
                return fn(height, threads, adopted)
        return traced

    def _engine(self, fn, name):
        def traced(depth, validf, planes, params, acc, row0, row1, **kwargs):
            attrs = {
                "flavor": engine_flavor(name, kwargs),
                "px": (row1 - row0) * depth.shape[1],
                "offsets": (2 * params.window_radius + 1) ** 2,
            }
            with self.span(name, attrs):
                return fn(depth, validf, planes, params, acc, row0, row1, **kwargs)
        return traced

    def install(self) -> None:
        """Swap every target for its recorder. Missing targets are skipped."""
        wrap = {**{t: self._plain for t in PLAIN_TARGETS},
                **{t: self._banded for t in BANDED_TARGETS},
                **{t: self._engine for t in ENGINE_TARGETS}}
        for target, wrapper in wrap.items():
            module_name, attr, span_name = target
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper(original, span_name))

    def uninstall(self) -> None:
        """Put every original back, last patched first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the union of its children's intervals.

    Children of run_banded overlap when bands run on several threads,
    so their intervals are merged before they are subtracted.
    """
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        s, e = max(c.start, span.start), min(c.end, span.end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Named layers that do not nest in one another. trace.self_coverage sums
# them over the call's wall time; the residuals cli.self_s and
# pipeline.self_s are left out, so time that escapes every named layer
# shows as coverage below 1.
COVERED_LAYERS = ("image_model.load_s", "image_model.save_s", "preprocess.close_s",
                  "preprocess.expand_s", "edge_analysis.sobel_s", "edge_analysis.detect_s",
                  "edge_analysis.classify_s", "filters.denoise_s", "pipeline.fill_s")


def op_layer_metrics(spans: list[Span], report: dict, op_seconds: float) -> dict:
    """Per-layer metrics of one traced operation.

    `spans` are the operation's spans, rooted at one ROOT_SPAN span;
    `report` is the parsed restore report (region counts, holes);
    `op_seconds` is the operation's wall time measured around the call.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    selfs = {s.id: self_time(s, children.get(s.id, [])) for s in spans}

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def self_of(name):
        return sum(selfs[s.id] for s in spans if s.name == name)

    engine = {}
    for s in spans:
        if s.name.endswith(".window_sums"):
            e = engine.setdefault(s.attrs["flavor"], {"busy": 0.0, "px": 0, "work": 0})
            e["busy"] += s.duration
            e["px"] += s.attrs["px"]
            e["work"] += s.attrs["px"] * s.attrs["offsets"]

    def flavor(name, key):
        return engine.get(name, {}).get(key, 0)

    denoise_bands = [s for s in spans if s.name == "filters.run_banded"]
    band_wall = sum(s.duration for s in denoise_bands)
    band_count = sum(len(s.attrs["bands"]) for s in denoise_bands)
    denoise_busy = sum(flavor(f, "busy") for f in ("trilateral", "directional", "isotropic"))
    passes = [s.duration for s in spans if s.name == "pipeline.run_banded"]

    m = {
        "cli.self_s": self_of(ROOT_SPAN),
        "image_model.load_s": total("image_model.load"),
        "image_model.save_s": total("image_model.save"),
        "pipeline.self_s": self_of("pipeline.restore"),
        "preprocess.close_s": total("preprocess.close"),
        "preprocess.expand_s": total("preprocess.expand"),
        "edge_analysis.sobel_s": total("edge_analysis.sobel"),
        "edge_analysis.detect_s": total("edge_analysis.detect"),
        "edge_analysis.classify_s": total("edge_analysis.classify"),
        "edge_analysis.nearest_theta_s": total("edge_analysis.nearest_theta"),
        "filters.denoise_s": total("filters.denoise"),
        "filters.trilateral_busy_s": flavor("trilateral", "busy"),
        "filters.directional_busy_s": flavor("directional", "busy"),
        "filters.trilateral_px": flavor("trilateral", "px"),
        "filters.directional_px": flavor("directional", "px"),
        "filters.trilateral_useful_ratio": _ratio(report["nonhole_nonedge"],
                                                  flavor("trilateral", "px")),
        "filters.directional_useful_ratio": _ratio(report["nonhole_edge"],
                                                   flavor("directional", "px")),
        "filters.band_wall_s": band_wall,
        "filters.parallel_eff": _ratio(denoise_busy, band_wall * band_count),
        "pipeline.fill_s": total("pipeline.fill"),
        "pipeline.fill_passes": len(passes),
        "pipeline.fill_pass_s": statistics.median(passes) if passes else 0.0,
        "pipeline.fill_px": flavor("fill", "px"),
        "pipeline.filled_px": report["holes_filled"],
        "pipeline.fill_useful_ratio": _ratio(report["holes_filled"], flavor("fill", "px")),
        "pipeline.holes_unfilled": report["holes_unfilled"],
    }
    for f in ("trilateral", "directional", "fill"):
        m[f"filters.ns_per_px_offset.{f}"] = _ratio(flavor(f, "busy") * 1e9, flavor(f, "work"))
    for label in ("nonhole_nonedge", "nonhole_edge", "hole_nonedge", "hole_edge"):
        m[f"edge_analysis.{label}_px"] = report[label]
    m["trace.self_coverage"] = _ratio(sum(m[k] for k in COVERED_LAYERS), op_seconds)
    return m
