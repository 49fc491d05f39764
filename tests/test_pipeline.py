"""Pipeline configuration, hole filling, and the full restore path."""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthrestore import (
    ColorImage,
    ContractViolation,
    DegradeSpec,
    DepthMap,
    KernelParams,
    PipelineConfig,
    StructuringElement,
    bad_pixel_rate,
    classify_regions,
    compare,
    degrade,
    encode_depth_pgm,
    expand_holes,
    fill_holes,
    filter_non_hole,
    jbf_pixel,
    mae,
    make_scene,
    nearest_edge_theta,
    psnr,
    quantize,
    restore,
    save_color_ppm,
    save_depth_pgm,
)
from depthrestore import cli, pipeline
from depthrestore.edge_analysis import EdgeMap
from depthrestore.filters import run_banded, window_sums
from depthrestore.image_model import HOLE
from depthrestore.kernels import color_range_table, depth_range_table


def flat_guide(shape, value=120):
    return ColorImage(np.full(shape + (3,), value, dtype=np.uint8))


def no_edges(shape):
    return EdgeMap(np.zeros(shape, bool), np.zeros(shape))


def labels_from_holes(holes):
    return holes.astype(np.uint8) * 2  # hole/non-edge split only


def small_cfg(**kw):
    kernel = kw.pop("kernel", KernelParams(window_radius=1, sigma_x=1.5, sigma_y=1.5))
    return PipelineConfig(kernel=kernel, **kw)


def test_no_holes_means_no_passes():
    d = DepthMap(np.full((6, 6), 800.0))
    labels = np.zeros((6, 6), dtype=np.uint8)
    out, report = fill_holes(d, flat_guide((6, 6)), labels, no_edges((6, 6)), small_cfg())
    assert np.array_equal(out.samples, d.samples)
    assert report.fill_passes_used == 0
    assert report.holes_initial == 0
    assert report.holes_filled == 0


def test_single_hole_in_constant_fills_exactly():
    a = np.full((7, 7), 1200.0)
    a[3, 3] = HOLE
    holes = a == HOLE
    out, report = fill_holes(DepthMap(a), flat_guide((7, 7)),
                             labels_from_holes(holes), no_edges((7, 7)), small_cfg())
    assert out.samples[3, 3] == 1200.0
    assert report.fill_passes_used == 1
    assert report.holes_filled == 1
    assert report.holes_unfilled == 0


def test_block_hole_fills_outside_in():
    a = np.full((9, 9), 1500.0)
    a[3:6, 3:6] = HOLE
    holes = a == HOLE
    out, report = fill_holes(DepthMap(a), flat_guide((9, 9)),
                             labels_from_holes(holes), no_edges((9, 9)), small_cfg())
    # window radius 1: the ring fills on pass 1, the center on pass 2
    assert report.fill_passes_used == 2
    assert report.holes_filled == 9
    assert not (out.samples == HOLE).any()
    assert np.all(out.samples == 1500.0)


def test_pass_cap_stops_the_fill():
    a = np.full((9, 9), 1500.0)
    a[3:6, 3:6] = HOLE
    holes = a == HOLE
    out, report = fill_holes(DepthMap(a), flat_guide((9, 9)),
                             labels_from_holes(holes), no_edges((9, 9)),
                             small_cfg(max_fill_passes=1))
    assert report.fill_passes_used == 1
    assert report.holes_filled == 8
    assert report.holes_unfilled == 1
    assert out.samples[4, 4] == HOLE


def test_all_hole_image_terminates_unfilled():
    a = np.zeros((16, 16))
    holes = a == HOLE
    out, report = fill_holes(DepthMap(a), flat_guide((16, 16)),
                             labels_from_holes(holes), no_edges((16, 16)),
                             small_cfg())
    assert report.holes_initial == 256
    assert report.holes_unfilled == 256
    assert report.holes_filled == 0
    assert report.fill_passes_used <= 64
    assert (out.samples == HOLE).all()


@pytest.mark.parametrize("kernel,value,unfilled", [
    (KernelParams(sigma_r_color=0.01, window_radius=1), HOLE, 1),
    (KernelParams(window_radius=1), 1000.0, 0),
], ids=["underflow", "default_sigma"])
def test_a_hole_fills_only_where_its_weights_sum_above_zero(kernel, value, unfilled):
    """A hole whose guide differs from all its neighbors by 255 per
    channel. At sigma_r_color 0.01 every weight underflows to +0.0: the
    pass finds no support, leaves the pixel a hole and ends the fill. At
    the default sigma the weights are tiny but positive, and it fills."""
    a = np.full((7, 7), 1000.0)
    a[3, 3] = HOLE
    color = np.zeros((7, 7, 3), dtype=np.uint8)
    color[3, 3] = 255
    out, report = fill_holes(DepthMap(a), ColorImage(color), labels_from_holes(a == HOLE),
                             no_edges((7, 7)), PipelineConfig(kernel=kernel))
    assert out.samples[3, 3] == value
    assert report.holes_unfilled == unfilled
    assert report.fill_passes_used == 1


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("value", [5e-324, 1.0], ids=["min_subnormal", "one"])
def test_a_filled_value_never_reads_as_a_hole(value, threads):
    """A constant frame at the smallest positive double, and at 1.0,
    restores to exactly that value everywhere, at 1 and 3 threads, over
    both fill phases: no denoised or filled sample reads as the hole
    sentinel 0.0, so each fill pass grows from every sample the passes
    before it wrote."""
    d = np.full((12, 12), value)
    d[3:9, 3:9] = HOLE
    d[0, 0] = HOLE
    c = np.full((12, 12, 3), 90, dtype=np.uint8)
    c[:, 6:] = 200
    cfg = PipelineConfig(kernel=KernelParams(window_radius=1), threads=threads)
    out, _, report = restore(DepthMap(d), ColorImage(c), cfg)
    assert report.region_counts["hole_nonedge"] == 12
    assert report.region_counts["hole_edge"] == 28
    assert report.holes_unfilled == 0
    assert report.fill_passes_used == 3
    assert (out.samples == value).all()


def test_filled_values_respect_global_range():
    rng = np.random.default_rng(61)
    a = rng.uniform(900, 1100, (14, 14))
    a[4:9, 4:9] = HOLE
    holes = a == HOLE
    guide = ColorImage(rng.integers(0, 256, (14, 14, 3), dtype=np.uint8))
    out, report = fill_holes(DepthMap(a), guide, labels_from_holes(holes),
                             no_edges((14, 14)), small_cfg())
    assert report.holes_unfilled == 0
    filled = out.samples[holes]
    valid = a[~holes]
    assert filled.min() >= valid.min()
    assert filled.max() <= valid.max()


def test_fill_report_counts_are_consistent():
    rng = np.random.default_rng(62)
    a = rng.uniform(500, 3000, (16, 16))
    a[rng.random((16, 16)) < 0.3] = HOLE
    holes = a == HOLE
    out, report = fill_holes(DepthMap(a), flat_guide((16, 16)),
                             labels_from_holes(holes), no_edges((16, 16)),
                             small_cfg())
    assert report.holes_initial == int(holes.sum())
    assert report.holes_filled + report.holes_unfilled == report.holes_initial
    assert report.holes_filled == int((out.samples[holes] != HOLE).sum())


def test_restore_identity_on_clean_constant_scene():
    d = DepthMap(np.full((16, 16), 1750.0))
    out, labels, report = restore(d, flat_guide((16, 16)))
    assert np.array_equal(out.samples, d.samples)
    assert report.holes_initial == 0
    assert (labels == 0).all()


def test_restore_rejects_mismatched_shapes():
    d = DepthMap(np.zeros((16, 16)))
    with pytest.raises(ContractViolation) as e:
        restore(d, flat_guide((16, 18)))
    assert "16x16" in str(e.value) and "18x16" in str(e.value)


def test_restore_validates_config_before_touching_data():
    """A bad kernel width fails when its config is built, so neither
    restore nor a stage function ever receives it."""
    for sigma_s in (-1.0, 0):
        with pytest.raises(ContractViolation, match="sigma_s"):
            PipelineConfig(kernel=KernelParams(sigma_s=sigma_s))


def test_configs_check_themselves_when_built():
    """replace() builds a config too, so it is checked; and a nested
    config that is not of its type fails instead of escaping as an
    AttributeError."""
    for cfg, bad in ((PipelineConfig(), {"threads": -1}), (KernelParams(), {"sigma_x": 1.0}),
                     (StructuringElement(), {"radius": 0}), (DegradeSpec(), {"seed": -1})):
        with pytest.raises(ContractViolation, match=next(iter(bad))):
            replace(cfg, **bad)
    for bad in ({"kernel": None}, {"se": "x"}, {"kernel": StructuringElement()},
                {"se": KernelParams()}):
        with pytest.raises(ContractViolation, match=next(iter(bad))):
            PipelineConfig(**bad)


def frames(h, w):
    """One frame of each kind a public function takes, all h x w."""
    return {"depth": DepthMap(np.full((h, w), 900.0)), "truth": DepthMap(np.full((h, w), 910.0)),
            "guide": flat_guide((h, w)), "labels": np.zeros((h, w), np.uint8),
            "edges": no_edges((h, w)), "holes": np.zeros((h, w), bool),
            "mask": np.ones((h, w), bool)}


def metric_call(fn):
    return lambda f: fn(f["depth"], f["truth"], mask=f["mask"])


FRAME_CALLS = {
    "restore": (lambda f: restore(f["depth"], f["guide"], small_cfg()), ("depth", "guide")),
    "filter_non_hole": (lambda f: filter_non_hole(f["depth"], f["guide"], f["labels"],
                                                  f["edges"], PipelineConfig()),
                        ("depth", "guide", "labels", "edges")),
    "fill_holes": (lambda f: fill_holes(f["depth"], f["guide"], f["labels"], f["edges"],
                                        small_cfg()),
                   ("depth", "guide", "labels", "edges")),
    "expand_holes": (lambda f: expand_holes(f["holes"], f["edges"].edge, 1), ("holes", "edges")),
    "classify_regions": (lambda f: classify_regions(f["holes"], f["edges"], 1),
                         ("holes", "edges")),
    **{fn.__name__: (metric_call(fn), ("depth", "truth", "mask"))
       for fn in (psnr, mae, bad_pixel_rate, compare)},
}


@pytest.mark.parametrize("size", [(8, 11), (6, 8)], ids=["wider", "shorter"])
@pytest.mark.parametrize("name,frame", [(name, frame) for name, (_, reads) in FRAME_CALLS.items()
                                        for frame in reads])
def test_every_frame_must_match_in_size(name, frame, size):
    """Each frame a public function reads, made larger or smaller than
    the others, fails as a ContractViolation naming both sizes, instead
    of running on misaligned pixels or escaping as a raw numpy error."""
    call, _ = FRAME_CALLS[name]
    call(frames(8, 8))
    with pytest.raises(ContractViolation) as e:
        call(frames(8, 8) | {frame: frames(*size)[frame]})
    assert "8x8" in str(e.value) and f"{size[1]}x{size[0]}" in str(e.value)


TYPED_CALLS = {
    "restore": (lambda a: restore(a["depth"], a["guide"], a["cfg"]), ("depth", "guide", "cfg")),
    "filter_non_hole": (lambda a: filter_non_hole(a["depth"], a["guide"], a["labels"],
                                                  a["edges"], a["cfg"]),
                        ("depth", "guide", "edges", "cfg")),
    "fill_holes": (lambda a: fill_holes(a["filtered"], a["guide"], a["labels"], a["edges"],
                                        a["cfg"]),
                   ("filtered", "guide", "edges", "cfg")),
    "jbf_pixel": (lambda a: jbf_pixel((1, 2), a["depth"], a["guide"], a["params"]),
                  ("depth", "guide", "params")),
    "nearest_edge_theta": (lambda a: nearest_edge_theta(a["edges"], 1, np.arange(3)), ("edges",)),
}


@pytest.mark.parametrize("wrong", [None, {"threads": 1}, np.zeros((8, 8))],
                         ids=["none", "dict", "ndarray"])
@pytest.mark.parametrize("name,arg", [(name, arg) for name, (_, typed) in TYPED_CALLS.items()
                                      for arg in typed])
def test_stage_entries_check_their_argument_types(name, arg, wrong):
    """Each stage entry, and the per-pixel filters through _filter_at,
    given None, a dict or a bare array for one of its typed arguments,
    fails as a ContractViolation naming that argument, instead of
    escaping as an AttributeError from deep inside."""
    call, _ = TYPED_CALLS[name]
    f = frames(8, 8)
    args = {"depth": f["depth"], "filtered": f["depth"], "guide": f["guide"],
            "labels": f["labels"], "edges": f["edges"], "cfg": small_cfg(),
            "params": small_cfg().kernel}
    call(args)
    with pytest.raises(ContractViolation, match=rf"^{arg} must be a [A-Za-z]+, got"):
        call(args | {arg: wrong})


MASK_CALLS = {
    "EdgeMap.edge": lambda f, m: EdgeMap(m, np.zeros(m.shape)),
    "expand_holes.holes": lambda f, m: expand_holes(m, f["holes"], 1),
    "expand_holes.edges": lambda f, m: expand_holes(f["holes"], m, 1),
    "classify_regions.holes": lambda f, m: classify_regions(m, f["edges"], 1),
    **{f"{fn.__name__}.mask": lambda f, m, fn=fn: fn(f["depth"], f["truth"], mask=m)
       for fn in (psnr, mae, bad_pixel_rate, compare)},
}


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("name", list(MASK_CALLS))
def test_masks_must_be_bool(name, dtype):
    """A 0/1 int or float mask fails as a ContractViolation naming the
    mask, instead of being read as row indices or as weights, or
    escaping as a raw numpy error."""
    mask = np.zeros((8, 8), bool)
    mask[2, 2] = True
    MASK_CALLS[name](frames(8, 8), mask)
    with pytest.raises(ContractViolation, match=rf"^{name.split('.')[1]} must be a bool array"):
        MASK_CALLS[name](frames(8, 8), mask.astype(dtype))


def hole_labels(*holes):
    """8x8 labels: HOLE_NONEDGE (2) at each of holes, else NONHOLE_NONEDGE."""
    labels = np.zeros((8, 8), np.uint8)
    for p in holes:
        labels[p] = 2
    return labels


@pytest.mark.parametrize("labels,match", [
    (np.full((8, 8), 7, np.uint8), r"^labels must lie in 0-3, got 7 to 7"),
    (np.full((8, 8), -1, np.int64), r"^labels must lie in 0-3, got -1 to -1"),
    (np.full((8, 8), 0.5), r"^labels must be an integer array, got float64"),
    (np.zeros((8, 8), bool), r"^labels must be an integer array, got bool"),
    (hole_labels(), r"^labels 2-3 must mark exactly the depth's holes, 1 of 64 pixels"),
    (hole_labels((3, 3), (0, 5)),
     r"^labels 2-3 must mark exactly the depth's holes, 1 of 64 pixels"),
], ids=["seven", "negative", "float", "bool", "hole-labelled-valid", "valid-labelled-hole"])
@pytest.mark.parametrize("stage", [filter_non_hole, fill_holes], ids=lambda f: f.__name__)
def test_labels_must_be_region_labels(stage, labels, match):
    """Labels outside 0-3, not integers, or whose hole labels 2-3 do
    not mark exactly the depth's holes fail as a ContractViolation that
    says how many pixels disagree. Unchecked, an all-7 grid made
    filter_non_hole denoise nothing and fill_holes report 64 unfilled
    holes on a frame with one, and an all-0.5 grid made fill_holes
    report none while the hole stayed 0. A hole labelled valid was read
    as a 0 mm seed: on a flat 1000 mm 12x12 frame with a 4x4 hole whose
    corner was labelled 0, at r = 2, fill_holes filled the other hole
    pixels with 880-926 mm, left the corner at 0 and reported no
    unfilled hole."""
    d = np.full((8, 8), 900.0)
    d[3, 3] = HOLE
    stage(DepthMap(d), flat_guide((8, 8)), hole_labels((3, 3)), no_edges((8, 8)), small_cfg())
    with pytest.raises(ContractViolation, match=match):
        stage(DepthMap(d), flat_guide((8, 8)), labels, no_edges((8, 8)), small_cfg())


def test_restore_output_has_no_new_holes_and_rounds_cleanly():
    rng = np.random.default_rng(63)
    a = rng.uniform(400, 4000, (24, 24))
    a[rng.random((24, 24)) < 0.1] = HOLE
    guide = ColorImage(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8))
    out, labels, report = restore(DepthMap(a), guide,
                                  PipelineConfig(kernel=KernelParams(window_radius=3)))
    assert report.holes_unfilled == 0
    assert not (out.samples == HOLE).any()
    assert out.samples.min() >= 0 and out.samples.max() <= 65535


@settings(max_examples=40, deadline=None)
@given(h=st.integers(3, 12), w=st.integers(3, 12),
       hole_fraction=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
       seed=st.integers(0, 2**32 - 1))
def test_restore_output_stays_inside_valid_input_range(h, w, hole_fraction, seed):
    """On random frames with holes, every output sample, as a float and
    as written, lies inside [min, max] of the valid input depths, or is
    a hole the report counts as unfilled."""
    rng = np.random.default_rng(seed)
    d = rng.integers(500, 4000, (h, w)).astype(np.float64)
    d[rng.random((h, w)) < hole_fraction] = HOLE
    d[rng.integers(h), rng.integers(w)] = rng.integers(500, 4000)
    guide = ColorImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    lo, hi = d[d != HOLE].min(), d[d != HOLE].max()
    out, _, report = restore(DepthMap(d), guide)
    for samples in (out.samples, quantize(out.samples)):
        unfilled = samples == HOLE
        assert np.count_nonzero(unfilled) == report.holes_unfilled
        assert np.all((lo <= samples[~unfilled]) & (samples[~unfilled] <= hi))


def test_restore_thread_count_never_changes_pixels():
    rng = np.random.default_rng(64)
    a = rng.uniform(400, 4000, (20, 20))
    a[rng.random((20, 20)) < 0.15] = HOLE
    guide = ColorImage(rng.integers(0, 256, (20, 20, 3), dtype=np.uint8))
    base, _, _ = restore(DepthMap(a), guide, PipelineConfig(threads=1))
    for threads in (2, 5, 0):
        again, _, _ = restore(DepthMap(a), guide, PipelineConfig(threads=threads))
        assert np.array_equal(base.samples, again.samples)


# Traced peak of each stage above the memory live when it starts, in
# float64 frames of the degraded 640x480 occluder with cold weight
# tables, as measured once every stage built its frames in place: 2.03,
# 4.03, 1.38, 3.00, 4.23 and 3.30; fill_holes read 2.42 once validity
# was one bool frame, and filter_non_hole 3.04 (4.06 before) once the
# engine finished each block itself, so that its den is block-sized.
# close_depth read 2.13 once the min pass took the max pass's output as
# its row-fold scratch. filter_non_hole read 3.20 and fill_holes 2.44
# once gathers weighed a whole window row per array op: the edge pass's
# 6724 targets then fill a block of 11 x 2978 entries where one side
# had 6724. Before, sobel_gradients read 9.0, to_grayscale 5.0,
# detect_edges 3.25 and filter_non_hole 5.7, under a bound of 6.
STAGE_PEAK_FRAMES = {"to_grayscale": 2.25, "sobel_gradients": 4.25, "detect_edges": 1.5,
                     "close_depth": 2.25, "filter_non_hole": 3.25, "fill_holes": 2.75}

# The same peaks on the degraded 640x480 checkerboard of 40 px tiles at
# 2 threads, where edges are everywhere and the one fill pass has 79539
# hole_edge targets: 4.71 and 4.20 once gathers weighed a whole window
# row per array op, over blocks of BLOCK_PX // (2r + 1) targets, so that
# a worker's wsum, cmin and cmax cover 2978 targets, not 32768; 5.27 and
# 5.45 once the engine finished each block itself, with no frame-sized
# den, cmin or cmax; 5.62 and 5.93 once the
# dense pass's suspect mask died with the pass, before the edge pass;
# 5.75 and 5.93 once the denoise wrote its output into the dense pass's
# num and took the edge pass's cos and sin after the dense pass;
# 5.92-5.96 and 5.93-5.94 once the engine read hole-ness from the depth
# frame and the fill kept no validity frame; 5.96 and 6.12 once the fill
# took its angles at each pass's targets and the denoise's gathered
# angles died at their cos and sin; 6.14-6.19 and 6.64 when the fill
# kept one angle table for the whole edge phase, 6.42 and 7.69 before
# the engine's block temporaries died at their last reader, 7.93 and
# 9.10 with float64 validity frames. On one CPU the bands share one
# worker, and the peaks are lower.
TILES_PEAK_FRAMES = {"filter_non_hole": 5.0, "fill_holes": 4.5}


def clear_table_caches():
    """Empty the weight-table caches, so that a traced restore builds
    its tables as the first restore of a process does, whichever tests
    ran before it: the color table alone is 0.63 frames at 640x480."""
    color_range_table.cache_clear()
    depth_range_table.cache_clear()


def peak_above(call):
    """call()'s result and its traced peak above the memory live when
    it starts, in bytes; tracemalloc must be tracing."""
    live = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = call()
    return out, tracemalloc.get_traced_memory()[1] - live


def traced_peak(call):
    """The traced peak of call() above the memory live when it starts,
    in bytes, with cold weight tables."""
    clear_table_caches()
    tracemalloc.start()
    try:
        return peak_above(call)[1]
    finally:
        tracemalloc.stop()


def traced_stage_peaks(monkeypatch, names, depth, guide, cfg=PipelineConfig()):
    """The traced peak of each named stage of restore(depth, guide, cfg)
    above the memory live when it starts, in float64 frames of the
    depth, with cold weight tables."""
    peaks = {}

    def measured(fn):
        def run(*args, **kwargs):
            out, peak = peak_above(lambda: fn(*args, **kwargs))
            peaks[fn.__name__] = peak / (depth.samples.size * 8)
            return out
        return run

    for name in names:
        monkeypatch.setattr(pipeline, name, measured(getattr(pipeline, name)))
    traced_peak(lambda: restore(depth, guide, cfg))
    assert set(peaks) == set(names)
    return peaks


def test_stage_peaks_stay_under_their_frame_bounds(monkeypatch):
    """On a degraded 640x480 occluder each stage's traced peak stays
    under its bound in STAGE_PEAK_FRAMES: the front end builds no
    throwaway frames, each stage pads its frames once and keeps no
    validity frame beside its depth, the fill takes the angles' cos and
    sin only at the outputs that read them, and the denoise writes its
    averages into num."""
    clean, guide = make_scene("occluder", 640, 480)
    depth = degrade(clean, DegradeSpec(20, 0.05, 2, seed=1))
    peaks = traced_stage_peaks(monkeypatch, STAGE_PEAK_FRAMES, depth, guide)
    assert all(peaks[name] <= bound for name, bound in STAGE_PEAK_FRAMES.items()), peaks


def test_threaded_checkerboard_peaks_stay_under_their_frame_bounds(monkeypatch):
    """On a degraded 640x480 checkerboard at 2 threads the denoise and
    fill peaks stay under TILES_PEAK_FRAMES: each gated pass compares
    its gathered depths with the hole value, and the fill keeps no
    validity frame."""
    clean, guide = checkerboard(640, 480, 40)
    depth = degrade(clean, DegradeSpec(20, 0.05, 2, seed=1))
    peaks = traced_stage_peaks(monkeypatch, TILES_PEAK_FRAMES, depth, guide,
                               PipelineConfig(threads=2))
    assert all(peaks[name] <= bound for name, bound in TILES_PEAK_FRAMES.items()), peaks


def test_restore_peak_stays_under_4_6_frames():
    """On the same degraded 640x480 occluder the traced peak of the
    whole restore, above the memory live when it starts, is at most 4.6
    float64 frames with cold weight tables: 6.48 once each intermediate
    died at its last use and the stages built their frames in place,
    where it read 13.2 before (14.1 with the full-grid nearest-edge
    angles), 6.37 once the engine's block temporaries died at their
    last reader, 6.35 once the engine read hole-ness from the depth
    frame, 5.31 once the denoise and the front end handed their frames
    on, and 4.29 once the engine finished each block itself. It reads
    4.45 since gathers weigh a whole window row per array op, in the
    fill and the edge pass. Keeping the closed map alive to the end
    reads 7.6."""
    clean, guide = make_scene("occluder", 640, 480)
    depth = degrade(clean, DegradeSpec(20, 0.05, 2, seed=1))
    assert traced_peak(lambda: restore(depth, guide)) / (640 * 480 * 8) <= 4.6


def test_float_denoise_peak_stays_under_6_85_frames(monkeypatch):
    """filter_non_hole on the degraded 640x480 occluder's hole-zeroed
    work map, with 0.25 mm added to every non-hole sample so that the
    denoise runs tracked on the float pad, peaks at most 6.85 float64
    frames above the memory live at the call, with cold weight tables.
    It read 6.71 once the unsigned frame died as soon as the depth
    proved fractional; keeping it alive beside the float pad reads 6.97."""
    clean, guide = make_scene("occluder", 640, 480)
    depth = degrade(clean, DegradeSpec(20, 0.05, 2, seed=1))
    seen = []

    def keep_args(*args):
        seen.append(args)
        return filter_non_hole(*args)

    monkeypatch.setattr(pipeline, "filter_non_hole", keep_args)
    restore(depth, guide)
    work, guide, labels, edges, cfg = seen[0]
    d = work.samples
    work = DepthMap(np.where(d != HOLE, d + 0.25, HOLE))
    del d
    peak = traced_peak(lambda: filter_non_hole(work, guide, labels, edges, cfg))
    assert peak / (640 * 480 * 8) <= 6.85


def traced_cli_restore_frames(tmp_path, clean, guide, threads, hole=0):
    """The traced peak of one CLI restore of clean, degraded at seed 1
    and, for a nonzero hole, with a central square hole of that side
    punched after the degradation (the bench's ramp-hole-qvga input),
    traced whole as the bench traces it, in float64 frames of its size
    with cold weight tables."""
    paths = [str(tmp_path / name) for name in ("depth.pgm", "guide.ppm", "out.pgm")]
    depth = degrade(clean, DegradeSpec(20, 0.05, 2, seed=1))
    if hole:
        d = depth.samples.copy()
        y, x = ((n - hole) // 2 for n in d.shape)
        d[y:y + hole, x:x + hole] = HOLE
        depth = DepthMap(d)
    save_depth_pgm(depth, paths[0])
    save_color_ppm(guide, paths[1])
    peak = traced_peak(lambda: cli.main(["restore", *paths, "--threads", str(threads)]))
    return peak / (clean.samples.size * 8)


def test_cli_restore_hands_each_map_on_at_its_last_read(tmp_path):
    """One CLI restore of the degraded 640x480 checkerboard at 2 threads,
    traced whole as the bench traces it, peaks at most 6.75 float64
    frames with cold weight tables. It read 8.93 once cmd_restore handed
    the loaded depth to restore, which drops it after the closing, and
    restore handed the denoised map to fill_holes, which drops it after
    padding it (CPython 3.11 moves call arguments into the callee's
    frame); the engine's block temporaries died at their last reader too.
    It read 11.98 before, 8.59 once the fill kept no angle table for its
    whole edge phase and the denoise no gathered angles beside their cos
    and sin, 8.21-8.23 once the denoise handed its input on and wrote
    its output into the dense pass's num, 7.75 once the engine
    finished each block itself, and 6.49 once gathers weighed a whole
    window row per array op over 2978-target blocks."""
    assert traced_cli_restore_frames(tmp_path, *checkerboard(640, 480, 40), threads=2) <= 6.75


def test_cli_restore_of_the_occluder_hands_each_map_on(tmp_path):
    """One CLI restore of the degraded 640x480 occluder at 1 thread,
    traced whole with cold weight tables as the bench's occluder-vga
    workload traces it, peaks at most 5.5 float64 frames. It read
    6.74-6.75 once cmd_restore, restore and fill_holes handed their maps
    on at their last reads, 5.69-5.70 once filter_non_hole,
    sobel_gradients and detect_edges did too, 5.52 once the engine
    finished each block itself, the peak then in the closing, and 5.43
    once the closing's min pass took the max pass's output as its
    row-fold scratch."""
    assert traced_cli_restore_frames(tmp_path, *make_scene("occluder", 640, 480),
                                     threads=1) <= 5.5


def test_cli_restore_of_the_holed_ramp_finishes_each_block(tmp_path):
    """One CLI restore of the degraded 320x240 ramp with a central 80x80
    hole at 1 thread, the bench's ramp-hole-qvga input, traced whole with
    cold weight tables, peaks at most 8.75 float64 frames. It read 9.57
    while the window engine kept frame-sized num and den and its block
    temporaries lived until the side's weights were done, and 8.49 once
    it finished each block itself and freed each temporary at its last
    reader."""
    clean, guide = make_scene("ramp", 320, 240)
    assert traced_cli_restore_frames(tmp_path, clean, guide, threads=1, hole=80) <= 8.75


def test_report_lines_are_stable_and_complete():
    d = DepthMap(np.full((16, 16), 900.0))
    _, _, report = restore(d, flat_guide((16, 16)))
    lines = report.lines()
    keys = [ln.split(":")[0] for ln in lines]
    assert keys == ["holes_initial", "holes_filled", "holes_unfilled",
                    "fill_passes_used", "nonhole_nonedge", "nonhole_edge",
                    "hole_nonedge", "hole_edge"]
    assert "holes_initial: 0" in lines
    assert "nonhole_nonedge: 256" in lines


def test_config_validation_errors():
    """Each bad setting fails when its config is built, naming the
    field, so no stage function, which a library caller may run on its
    own, can be handed one."""
    for bad in ({"edge_threshold": 0.0}, {"hole_expand_radius": -1}, {"max_fill_passes": 0},
                {"threads": -2}, {"r_edge": -1}):
        with pytest.raises(ContractViolation, match=next(iter(bad))):
            PipelineConfig(**bad)
    PipelineConfig()


def test_edge_threshold_must_be_a_real_number():
    """A bool or a string edge threshold fails validation instead of
    running as 1.0 or escaping as a TypeError."""
    for bad in (True, False, "100", None):
        with pytest.raises(ContractViolation):
            PipelineConfig(edge_threshold=bad)
    PipelineConfig(edge_threshold=50)
    PipelineConfig(edge_threshold=np.float64(50.0))


def test_threads_must_be_a_plain_int():
    """Checked when the config is built; the counts it takes run."""
    f = frames(8, 8)
    for bad in (True, False, 2.0, 1.5, "2", None, -3):
        with pytest.raises(ContractViolation):
            PipelineConfig(threads=bad)
    PipelineConfig(threads=3)
    for ok in (0, 1, np.int64(2)):
        filter_non_hole(f["depth"], f["guide"], f["labels"], f["edges"],
                        PipelineConfig(threads=ok))


def test_int_fields_reject_bools_and_floats():
    """A bool or a float in a count or radius fails validation instead
    of running as 0/1 or escaping as a TypeError later."""
    for bad in (True, False, 2.0, 2.5, "2"):
        for build, name in ((KernelParams, "window_radius"), (StructuringElement, "radius"),
                            (PipelineConfig, "r_edge"), (PipelineConfig, "hole_expand_radius"),
                            (PipelineConfig, "max_fill_passes")):
            with pytest.raises(ContractViolation):
                build(**{name: bad})
    PipelineConfig(r_edge=None, hole_expand_radius=0)


def test_isotropic_only_must_be_a_bool():
    for bad in ("false", "true", "yes", 0, 1, None):
        with pytest.raises(ContractViolation):
            PipelineConfig(isotropic_only=bad)
    PipelineConfig(isotropic_only=True)


class InlinePool:
    """Stands in for ThreadPoolExecutor: records each pool's max_workers
    and band count, and runs the jobs inline, so no thread starts."""

    pools = []

    def __init__(self, max_workers):
        self.record = {"max_workers": max_workers, "bands": 0}
        InlinePool.pools.append(self.record)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.record["bands"] += len(items)
        return [fn(item) for item in items]


def test_os_threads_capped_at_available_cpus_bands_kept(monkeypatch):
    clean, guide = make_scene("step", 48, 40)
    d = degrade(clean, DegradeSpec(20.0, 0.05, 2, seed=3))
    want = encode_depth_pgm(restore(d, guide, PipelineConfig(threads=1))[0])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    InlinePool.pools = []
    got = encode_depth_pgm(restore(d, guide, PipelineConfig(threads=8))[0])
    assert got == want
    assert InlinePool.pools  # denoise and at least one fill pass
    assert all(p == {"max_workers": 2, "bands": 8} for p in InlinePool.pools)


def test_zero_threads_is_one_band_per_cpu_in_the_stage_functions(monkeypatch):
    """threads=0 means one band per available CPU in filter_non_hole
    too, not only in restore, in each of its two passes, and keeps the
    threads=1 bytes."""
    clean, guide = make_scene("step", 48, 40)
    d = degrade(clean, DegradeSpec(20.0, 0.05, 2, seed=3)).samples.copy()
    labels = np.where(d == HOLE, 2, 0).astype(np.uint8)
    labels[:, 20:28][d[:, 20:28] != HOLE] = 1
    edges = EdgeMap(labels == 1, np.full(d.shape, 0.25))

    def run(threads):
        cfg = PipelineConfig(threads=threads)
        return encode_depth_pgm(filter_non_hole(DepthMap(d), guide, labels, edges, cfg))

    want = run(1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    InlinePool.pools = []
    assert run(0) == want
    assert InlinePool.pools == [{"max_workers": 2, "bands": 2}] * 2


def test_available_cpus_falls_back_to_cpu_count(monkeypatch):
    """Without an affinity set, threads=0 runs one band per CPU the
    machine reports, and one band when it reports none."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    for cpus, want in ((3, [(0, 4), (4, 7), (7, 10)]), (None, [(0, 10)])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        bands = []
        run_banded(10, 0, lambda r0, r1: bands.append((r0, r1)))
        assert bands == want


def test_effective_edge_radius_defaults_to_window_radius():
    assert PipelineConfig().effective_r_edge() == 5
    assert PipelineConfig(kernel=KernelParams(window_radius=3)).effective_r_edge() == 3
    assert PipelineConfig(r_edge=2).effective_r_edge() == 2


# Byte anchors for paths the pinned step scene of criterion 4 never
# reaches (it has no hole_nonedge pixels and fills in one pass). Each is
# the SHA-256 of the restored PGM under PipelineConfig() defaults (the
# ablation anchor under isotropic_only=True), on the pinned degradation;
# any drift means the numerics changed.
ANCHOR_SPEC = DegradeSpec(20.0, 0.05, 2, seed=42)
RAMP_HOLE_SHA256 = "a0a8bb9bc56536196804c79ff075b9948bba43d9b59f545a431d257ed17929d3"
TILES_SHA256 = "2b488b17edcc4e5b4024c35d3140f8ef22e4c28eea7cfd172a48be2a2f6fb4ce"
WEAK_STEP_SHA256 = "76b55dbb18213ef86dcbcd2171c947aa8d07069ce8bdee9d6e6e51d95ec21236"
TILES_ISOTROPIC_SHA256 = "ac186235f2db2e214a30b4016539ba40fd3222cebf7681e9d40da2769669111c"
TILES_MULTI_PASS_SHA256 = "046e3d428370376a910a60267108080f1278769559070107862aa021a6a07731"


def restored_sha256(depth, guide, cfg=PipelineConfig()):
    out, _, report = restore(depth, guide, cfg)
    return hashlib.sha256(encode_depth_pgm(out)).hexdigest(), report


def checkerboard(w, h, tile):
    """A clean w x h checkerboard of tile px squares at 1000/1800 mm,
    and its 64/192 guide."""
    yy, xx = np.indices((h, w))
    odd = ((yy // tile) + (xx // tile)) % 2 == 1
    clean = DepthMap(np.where(odd, 1800.0, 1000.0))
    guide = ColorImage(np.repeat(np.where(odd, 192, 64).astype(np.uint8)[..., None], 3, axis=2))
    return clean, guide


def checkerboard_anchor_scene():
    """10 px checkerboard (1000/1800 mm, colors 64/192), degraded."""
    clean, guide = checkerboard(160, 120, 10)
    return degrade(clean, ANCHOR_SPEC), guide


def test_anchor_ramp_with_large_hole_multi_pass_fill():
    """Edgeless ramp with a 40x40 hole punched after degradation:
    isotropic hole_nonedge fill over several onion-peel passes."""
    clean, guide = make_scene("ramp", 160, 120)
    d = degrade(clean, ANCHOR_SPEC).samples.copy()
    d[40:80, 60:100] = HOLE
    digest, report = restored_sha256(DepthMap(d), guide)
    assert report.fill_passes_used == 4
    assert report.region_counts["hole_nonedge"] == 1600
    assert report.holes_unfilled == 0
    assert digest == RAMP_HOLE_SHA256


def test_anchor_checkerboard_directional_everywhere():
    """10 px checkerboard (1000/1800 mm, colors 64/192): edges
    everywhere, directional denoise and hole_edge fill, and non-axis
    theta at the tile corners."""
    digest, report = restored_sha256(*checkerboard_anchor_scene())
    assert report.region_counts["hole_edge"] == 15445
    assert report.holes_unfilled == 0
    assert digest == TILES_SHA256


def test_anchor_checkerboard_isotropic_ablation():
    """The checkerboard anchor under isotropic_only=True: the ablation
    arm's isotropic denoise on both non-hole regions and its isotropic
    hole_edge fill, over 3691 nonhole_edge pixels."""
    digest, report = restored_sha256(*checkerboard_anchor_scene(),
                                     PipelineConfig(isotropic_only=True))
    assert report.region_counts["nonhole_edge"] == 3691
    assert report.holes_unfilled == 0
    assert digest == TILES_ISOTROPIC_SHA256


def test_anchor_checkerboard_multi_pass_edge_fill(monkeypatch):
    """The checkerboard anchor at window radius 2: the hole_edge fill
    takes two passes, so a steered frontier after the first is pinned.
    Each engine call of the fill (one per pass at one thread) records
    its target count: the 25 hole_nonedge pixels, then two edge
    frontiers."""
    frontiers = []

    def counted(*args, targets, **kwargs):
        frontiers.append(targets.size)
        return window_sums(*args, targets=targets, **kwargs)

    monkeypatch.setattr(pipeline, "window_sums", counted)
    digest, report = restored_sha256(*checkerboard_anchor_scene(),
                                     PipelineConfig(kernel=KernelParams(window_radius=2)))
    assert frontiers == [25, 8960, 6460]
    assert report.fill_passes_used == 3
    assert report.holes_unfilled == 0
    assert digest == TILES_MULTI_PASS_SHA256


def test_anchor_weak_color_step_reaches_color_range_kernel():
    """Step scene with the guide's right half at 104 (criterion 5's
    64|104 guide). Across the edge the color weight is about 0.021, not
    1 or e^-39 as on the other anchors' guides, so a change in the color
    range kernel reaches the restored bytes."""
    clean, guide = make_scene("step", 160, 120)
    c = guide.samples.copy()
    c[:, c.shape[1] // 2:] = 104
    digest, report = restored_sha256(degrade(clean, ANCHOR_SPEC), ColorImage(c))
    assert report.region_counts["hole_edge"] == 720
    assert report.holes_unfilled == 0
    assert digest == WEAK_STEP_SHA256


# Runs pytest on this file's byte anchors with numpy's dispatch to every
# target above its baseline switched off, after checking that it is.
BASELINE_CHILD = """\
import sys, pytest
import numpy._core._multiarray_umath as m
on = [t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)]
sys.exit(f"numpy still dispatches to {on}" if on else pytest.main(sys.argv[1:]))
"""


def test_anchor_bytes_hold_under_numpy_baseline_dispatch():
    """The five byte anchors pass again in a child process that runs
    numpy's baseline kernels only. np.exp and np.arctan round some
    arguments differently there, so the float output moves by up to
    about 1e-12 mm, but no PGM byte does."""
    m = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to no target above its baseline on this CPU")
    child = subprocess.run(
        [sys.executable, "-c", BASELINE_CHILD, "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_anchor_ and not dispatch"],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
        env=os.environ | {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}, timeout=300)
    assert child.returncode == 0 and "5 passed" in child.stdout, child.stdout + child.stderr
