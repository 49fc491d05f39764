"""Pipeline configuration, hole filling, and the full restore path."""

import concurrent.futures
import hashlib
import os
import tracemalloc

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
    mae,
    make_scene,
    psnr,
    quantize,
    restore,
)
from depthrestore import pipeline
from depthrestore.edge_analysis import EdgeMap
from depthrestore.filters import run_banded
from depthrestore.image_model import HOLE


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
    d = DepthMap(np.full((16, 16), 100.0))
    for sigma_s in (-1.0, 0):
        bad = PipelineConfig(kernel=KernelParams(sigma_s=sigma_s))
        with pytest.raises(ContractViolation):
            restore(d, flat_guide((16, 16)), bad)
        with pytest.raises(ContractViolation):
            filter_non_hole(d, flat_guide((16, 16)), np.zeros((16, 16), np.uint8),
                            no_edges((16, 16)), bad)


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


def test_denoise_and_fill_peaks_stay_under_six_frames(monkeypatch):
    """On a degraded 640x480 occluder, the traced peak of
    filter_non_hole and of fill_holes, above the memory live when each
    starts, is at most 6 float64 frames: each stage builds its padded
    frames once, and takes the angles' cos and sin only at the
    outputs that read them."""
    clean, guide = make_scene("occluder", 640, 480)
    depth = degrade(clean, DegradeSpec(20, 0.05, 2, seed=1))
    frame = 640 * 480 * 8
    peaks = {}

    def measured(fn):
        def run(*args, **kwargs):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            peaks[fn.__name__] = (tracemalloc.get_traced_memory()[1] - live) / frame
            return out
        return run

    for name in ("filter_non_hole", "fill_holes"):
        monkeypatch.setattr(pipeline, name, measured(getattr(pipeline, name)))
    tracemalloc.start()
    try:
        restore(depth, guide)
    finally:
        tracemalloc.stop()
    assert set(peaks) == {"filter_non_hole", "fill_holes"}
    assert max(peaks.values()) <= 6, peaks


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
    """Each bad config fails validate(), and each stage function, which
    a library caller may run on its own, validates it too."""
    f = frames(8, 8)
    for bad in (PipelineConfig(edge_threshold=0.0), PipelineConfig(hole_expand_radius=-1),
                PipelineConfig(max_fill_passes=0), PipelineConfig(threads=-2),
                PipelineConfig(r_edge=-1)):
        with pytest.raises(ContractViolation):
            bad.validate()
        for stage in (filter_non_hole, fill_holes):
            with pytest.raises(ContractViolation):
                stage(f["depth"], f["guide"], f["labels"], f["edges"], bad)
    PipelineConfig().validate()


def test_edge_threshold_must_be_a_real_number():
    """A bool or a string edge threshold fails validation instead of
    running as 1.0 or escaping as a TypeError."""
    for bad in (True, False, "100", None):
        with pytest.raises(ContractViolation):
            PipelineConfig(edge_threshold=bad).validate()
    PipelineConfig(edge_threshold=50).validate()
    PipelineConfig(edge_threshold=np.float64(50.0)).validate()


def test_threads_must_be_a_plain_int():
    """In the config and in filter_non_hole, which validates its config."""
    f = frames(8, 8)
    for bad in (True, False, 2.0, 1.5, "2", None, -3):
        with pytest.raises(ContractViolation):
            PipelineConfig(threads=bad).validate()
        with pytest.raises(ContractViolation):
            filter_non_hole(f["depth"], f["guide"], f["labels"], f["edges"],
                            PipelineConfig(threads=bad))
    PipelineConfig(threads=3).validate()
    for ok in (0, 1, np.int64(2)):
        filter_non_hole(f["depth"], f["guide"], f["labels"], f["edges"],
                        PipelineConfig(threads=ok))


def test_int_fields_reject_bools_and_floats():
    """A bool or a float in a count or radius fails validation instead
    of running as 0/1 or escaping as a TypeError later."""
    for bad in (True, False, 2.0, 2.5, "2"):
        for cfg in (PipelineConfig(kernel=KernelParams(window_radius=bad)),
                    PipelineConfig(se=StructuringElement(radius=bad)),
                    PipelineConfig(r_edge=bad),
                    PipelineConfig(hole_expand_radius=bad),
                    PipelineConfig(max_fill_passes=bad)):
            with pytest.raises(ContractViolation):
                cfg.validate()
    PipelineConfig(r_edge=None, hole_expand_radius=0).validate()


def test_isotropic_only_must_be_a_bool():
    f = frames(8, 8)
    for bad in ("false", "true", "yes", 0, 1, None):
        with pytest.raises(ContractViolation):
            restore(f["depth"], f["guide"], PipelineConfig(isotropic_only=bad))
        for stage in (filter_non_hole, fill_holes):
            with pytest.raises(ContractViolation):
                stage(f["depth"], f["guide"], f["labels"], f["edges"],
                      PipelineConfig(isotropic_only=bad))
    PipelineConfig(isotropic_only=True).validate()


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
    too, not only in restore, and keeps the threads=1 bytes."""
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
    assert InlinePool.pools == [{"max_workers": 2, "bands": 2}]


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


def restored_sha256(depth, guide, cfg=PipelineConfig()):
    out, _, report = restore(depth, guide, cfg)
    return hashlib.sha256(encode_depth_pgm(out)).hexdigest(), report


def checkerboard_anchor_scene():
    """10 px checkerboard (1000/1800 mm, colors 64/192), degraded."""
    yy, xx = np.indices((120, 160))
    odd = ((yy // 10) + (xx // 10)) % 2 == 1
    clean = DepthMap(np.where(odd, 1800.0, 1000.0))
    guide = ColorImage(np.repeat(np.where(odd, 192, 64).astype(np.uint8)[..., None], 3, axis=2))
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
