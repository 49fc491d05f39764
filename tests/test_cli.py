"""Exit codes, flag/config precedence, and file handling of the CLI."""

import math
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from depthrestore import (
    DegradeSpec,
    DepthMap,
    KernelParams,
    StructuringElement,
    load_color_ppm,
    load_depth_pgm,
    make_scene,
    save_color_ppm,
    save_depth_pgm,
)
from depthrestore.cli import assemble_pipeline_config, build_parser, main, parse_config_file
from depthrestore.evaluate import DEFAULT_TAU
from depthrestore.pipeline import DEFAULT_EDGE_THRESHOLD, PipelineConfig
from depthrestore.errors import ContractViolation


def scene_files(tmp_path, seed=1, noise="12", speckle="0.05", radius="1"):
    """Run `degrade --scene step` and return (clean, color, degraded) paths."""
    out = str(tmp_path / "deg.pgm")
    rc = main(["degrade", out, "--scene", "step", "--seed", str(seed),
               "--noise-sigma", noise, "--speckle", speckle,
               "--edge-hole-radius", radius])
    assert rc == 0
    return str(tmp_path / "deg_clean.pgm"), str(tmp_path / "deg_color.ppm"), out


def test_degrade_scene_writes_clean_and_color_siblings(tmp_path):
    clean, color, deg = scene_files(tmp_path)
    ref_depth, ref_color = make_scene("step", 160, 120)
    assert np.array_equal(load_depth_pgm(clean).samples, ref_depth.samples)
    assert np.array_equal(load_color_ppm(color).samples, ref_color.samples)
    assert (load_depth_pgm(deg).samples == 0).any()


def test_degrade_runs_are_byte_identical(tmp_path):
    _, _, first = scene_files(tmp_path)
    data1 = Path(first).read_bytes()
    _, _, second = scene_files(tmp_path)
    assert Path(second).read_bytes() == data1


def test_degrade_zero_spec_reproduces_clean_bytes(tmp_path):
    out = str(tmp_path / "d.pgm")
    assert main(["degrade", out, "--scene", "ramp"]) == 0
    assert Path(out).read_bytes() == (tmp_path / "d_clean.pgm").read_bytes()


def test_degrade_reads_a_clean_pgm(tmp_path):
    """degrade CLEAN.pgm OUT.pgm degrades the map it reads: the bytes of
    a --scene run with the same spec, whose clean sibling it reads."""
    clean, _, deg = scene_files(tmp_path, seed=5)
    out = str(tmp_path / "from_file.pgm")
    assert main(["degrade", clean, out, "--seed", "5", "--noise-sigma", "12",
                 "--speckle", "0.05", "--edge-hole-radius", "1"]) == 0
    assert Path(out).read_bytes() == Path(deg).read_bytes()


def test_degrade_wants_exactly_one_input(tmp_path, capsys):
    out = str(tmp_path / "x.pgm")
    assert main(["degrade", out]) == 2
    clean = str(tmp_path / "c.pgm")
    save_depth_pgm(DepthMap(np.full((16, 16), 500.0)), clean)
    assert main(["degrade", clean, out, "--scene", "step"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_degrade_validates_speckle_fraction(tmp_path):
    out = str(tmp_path / "x.pgm")
    assert main(["degrade", out, "--scene", "step", "--speckle", "1.0"]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_degrade_rejects_non_finite_noise_sigma(tmp_path, capsys, sigma):
    out = str(tmp_path / "x.pgm")
    assert main(["degrade", out, "--scene", "step", f"--noise-sigma={sigma}"]) == 2
    assert os.listdir(tmp_path) == []
    assert "noise_sigma" in capsys.readouterr().err


def test_degrade_overflowing_noise_sigma_clamps(tmp_path):
    out = str(tmp_path / "x.pgm")
    assert main(["degrade", out, "--scene", "step", "--noise-sigma", "1e308"]) == 0
    assert set(np.unique(load_depth_pgm(out).samples)) == {1.0, 65535.0}


def test_restore_end_to_end(tmp_path, capsys):
    clean, color, deg = scene_files(tmp_path)
    out = str(tmp_path / "restored.pgm")
    rc = main(["restore", deg, color, out])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "holes_initial:" in stdout
    assert "fill_passes_used:" in stdout
    restored = load_depth_pgm(out)
    assert not (restored.samples == 0).any()


def test_restore_rejects_mismatched_dimensions(tmp_path, capsys):
    depth = str(tmp_path / "d.pgm")
    save_depth_pgm(DepthMap(np.full((16, 16), 700.0)), depth)
    color = str(tmp_path / "c.ppm")
    _, img = make_scene("step", 20, 16)
    save_color_ppm(img, color)
    out = str(tmp_path / "o.pgm")
    assert main(["restore", depth, color, out]) == 2
    err = capsys.readouterr().err
    assert "16x16" in err and "20x16" in err
    assert not os.path.exists(out)


def test_restore_validation_failure_leaves_no_output(tmp_path):
    clean, color, deg = scene_files(tmp_path)
    out = str(tmp_path / "r.pgm")
    assert main(["restore", deg, color, out, "--sigma-s", "0"]) == 2
    assert not os.path.exists(out)


def test_restore_missing_input_is_io_error(tmp_path, capsys):
    out = str(tmp_path / "r.pgm")
    rc = main(["restore", str(tmp_path / "nope.pgm"), str(tmp_path / "nope.ppm"), out])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_restore_malformed_input_is_io_error(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n65535\n\x00\x00")  # truncated
    _, color, _ = scene_files(tmp_path)
    assert main(["restore", str(bad), color, str(tmp_path / "o.pgm")]) == 1


def test_restore_trailing_payload_bytes_is_io_error(tmp_path):
    _, color, deg = scene_files(tmp_path)
    out = tmp_path / "o.pgm"
    for which in (0, 1):  # one extra byte on the depth map, then on the guide
        args = [deg, color]
        long = tmp_path / f"long{which}"
        with open(args[which], "rb") as f:
            long.write_bytes(f.read() + b"\x00")
        args[which] = str(long)
        assert main(["restore", *args, str(out)]) == 1
        assert not out.exists()


def test_restore_overlong_header_number_is_io_error(tmp_path):
    """A 5000-digit width is more than int() converts; it is a malformed
    file (exit 1), not a traceback."""
    _, color, _ = scene_files(tmp_path)
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5 " + b"1" * 5000 + b" 1 65535\n\x00\x00")
    out = tmp_path / "o.pgm"
    assert main(["restore", str(bad), color, str(out)]) == 1
    assert not out.exists()


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["restore", "a", "b", "c", "--wat"])
    assert e.value.code == 2


def test_eval_identical_maps_prints_inf(tmp_path, capsys):
    p = str(tmp_path / "a.pgm")
    save_depth_pgm(DepthMap(np.full((16, 16), 1200.0)), p)
    assert main(["eval", p, p]) == 0
    out = capsys.readouterr().out
    assert "psnr_db: inf" in out
    assert "evaluated_pixels: 256" in out


def test_eval_reports_closed_form_metrics(tmp_path, capsys):
    a = str(tmp_path / "a.pgm")
    b = str(tmp_path / "b.pgm")
    save_depth_pgm(DepthMap(np.full((8, 8), 1000.0)), a)
    save_depth_pgm(DepthMap(np.full((8, 8), 1012.0)), b)
    assert main(["eval", a, b, "--tau", "15"]) == 0
    out = capsys.readouterr().out
    assert "mae_mm: 12.000000" in out
    assert "bad_pixel_rate: 0.000000" in out
    printed = [ln for ln in out.splitlines() if ln.startswith("psnr_db:")][0]
    want = 20.0 * math.log10(65535.0 / 12.0)
    assert abs(float(printed.split(":")[1]) - want) < 1e-5


def test_eval_rejects_negative_tau(tmp_path):
    p = str(tmp_path / "a.pgm")
    save_depth_pgm(DepthMap(np.full((8, 8), 1000.0)), p)
    for tau in ("-1", "nan"):
        assert main(["eval", p, p, "--tau", tau]) == 2


def test_edges_dumps_mask_and_theta(tmp_path):
    _, color, _ = scene_files(tmp_path)
    prefix = str(tmp_path / "dump")
    assert main(["edges", color, prefix]) == 0
    # the mask is 8-bit, so read its bytes directly
    raw = Path(prefix + "_edges.pgm").read_bytes()
    assert raw.startswith(b"P5\n160 120\n255\n")
    body = raw[len(b"P5\n160 120\n255\n"):]
    assert set(body) <= {0, 255}
    assert 255 in body  # the step produces edges
    theta = load_depth_pgm(prefix + "_theta.pgm")
    # vertical contour: theta pi/2 maps to the top of the unit range
    assert theta.samples[60, 79] == 65535.0
    assert theta.samples[60, 80] == 65535.0


def test_edges_constant_image_has_empty_mask(tmp_path):
    color = str(tmp_path / "flat.ppm")
    _, img = make_scene("ramp", 32, 32)
    save_color_ppm(img, color)
    prefix = str(tmp_path / "flat")
    assert main(["edges", color, prefix]) == 0
    raw = Path(prefix + "_edges.pgm").read_bytes()
    body = raw[raw.index(b"255\n") + 4:]
    assert set(body) == {0}


def test_config_file_applies_and_flags_override(tmp_path):
    clean, color, deg = scene_files(tmp_path)
    cfg = tmp_path / "settings.conf"
    cfg.write_text("# tuning\nsigma_s = 1.0\nwindow_radius = 3\n")
    out_file = str(tmp_path / "a.pgm")
    assert main(["restore", deg, color, out_file, "--config", str(cfg)]) == 0
    flag_run = str(tmp_path / "b.pgm")
    assert main(["restore", deg, color, flag_run,
                 "--sigma-s", "1.0", "--window-radius", "3"]) == 0
    assert Path(out_file).read_bytes() == Path(flag_run).read_bytes()

    override = str(tmp_path / "c.pgm")
    assert main(["restore", deg, color, override, "--config", str(cfg),
                 "--sigma-s", "3.0", "--window-radius", "5"]) == 0
    default_run = str(tmp_path / "d.pgm")
    assert main(["restore", deg, color, default_run]) == 0
    assert Path(override).read_bytes() == Path(default_run).read_bytes()


def test_no_flags_and_no_config_give_library_defaults():
    args = build_parser().parse_args(["restore", "d.pgm", "c.ppm", "o.pgm"])
    assert assemble_pipeline_config(args) == PipelineConfig()


def _library_defaults():
    """(command, flag dest, value) for every valued flag, read from the
    library object the flag sets."""
    cfg, spec = PipelineConfig(), DegradeSpec()
    rows = [("restore", f.name, getattr(cfg.kernel, f.name)) for f in fields(KernelParams)]
    rows += [("restore", f.name, getattr(cfg, f.name)) for f in fields(PipelineConfig)
             if f.name not in ("kernel", "se")]
    rows.append(("restore", "closing_radius", StructuringElement().radius))
    rows += [("degrade", f.name, getattr(spec, f.name)) for f in fields(DegradeSpec)]
    rows += [("eval", "tau", DEFAULT_TAU), ("edges", "edge_threshold", DEFAULT_EDGE_THRESHOLD)]
    return rows


_POSITIONALS = {"restore": ["d.pgm", "c.ppm", "o.pgm"], "degrade": ["o.pgm"],
                "eval": ["a.pgm", "b.pgm"], "edges": ["c.ppm", "prefix"]}


@pytest.mark.parametrize("command,dest,want", _library_defaults())
def test_flag_default_is_the_library_default(command, dest, want):
    """A flag's default and the one its help shows are the library's.
    restore's flags default to None so that a config file can fill
    them; for those the default is what the assembled config holds."""
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    action = next(a for a in sub._actions if a.dest == dest)
    got = action.default
    if command == "restore":
        cfg = assemble_pipeline_config(parser.parse_args([command, *_POSITIONALS[command]]))
        got = {**asdict(cfg), **asdict(cfg.kernel), "closing_radius": cfg.se.radius}[dest]
    assert got == want and type(got) is type(want)
    if want is not None and type(want) is not bool:
        assert f"(default: {want})" in action.help


def test_config_file_unknown_key_fails_closed(tmp_path):
    clean, color, deg = scene_files(tmp_path)
    cfg = tmp_path / "bad.conf"
    cfg.write_text("sigma_z = 4\n")
    out = str(tmp_path / "o.pgm")
    assert main(["restore", deg, color, out, "--config", str(cfg)]) == 2
    assert not os.path.exists(out)


def test_config_parser_details(tmp_path):
    cfg = tmp_path / "p.conf"
    cfg.write_text("threads = 4  # inline comment\nisotropic_only = true\n\n"
                   "sigma_x = 6.5\n")
    got = parse_config_file(str(cfg))
    assert got == {"threads": 4, "isotropic_only": True, "sigma_x": 6.5}
    cfg.write_text("threads four\n")
    with pytest.raises(ContractViolation):
        parse_config_file(str(cfg))
    cfg.write_text("threads = four\n")
    with pytest.raises(ContractViolation) as e:
        parse_config_file(str(cfg))
    assert "threads" in str(e.value)
    cfg.write_text("isotropic_only = false\n")
    assert parse_config_file(str(cfg)) == {"isotropic_only": False}
    cfg.write_text("isotropic_only = maybe\n")
    with pytest.raises(ContractViolation, match="isotropic_only wants true/false"):
        parse_config_file(str(cfg))


def test_unreadable_config_is_io_error(tmp_path, capsys):
    clean, color, deg = scene_files(tmp_path)
    out = str(tmp_path / "o.pgm")
    assert main(["restore", deg, color, out, "--config", str(tmp_path / "none.conf")]) == 1
    assert "cannot read config file" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_isotropic_flag_changes_output(tmp_path):
    clean, color, deg = scene_files(tmp_path, noise="20", speckle="0.05", radius="2")
    full = str(tmp_path / "f.pgm")
    iso = str(tmp_path / "i.pgm")
    assert main(["restore", deg, color, full]) == 0
    assert main(["restore", deg, color, iso, "--isotropic-only"]) == 0
    assert Path(full).read_bytes() != Path(iso).read_bytes()


def test_threads_flag_does_not_change_bytes(tmp_path):
    clean, color, deg = scene_files(tmp_path)
    a = str(tmp_path / "t1.pgm")
    b = str(tmp_path / "t8.pgm")
    assert main(["restore", deg, color, a, "--threads", "1"]) == 0
    assert main(["restore", deg, color, b, "--threads", "8"]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_help_lists_defaults(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep argparse from wrapping mid-phrase
    with pytest.raises(SystemExit) as e:
        main(["restore", "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for flag, default in (("--sigma-s", "3.0"), ("--sigma-r-color", "25.0"),
                          ("--sigma-r-depth", "30.0"), ("--sigma-x", "5.0"),
                          ("--sigma-y", "1.5"), ("--window-radius", "5"),
                          ("--edge-threshold", "100.0"), ("--max-fill-passes", "64"),
                          ("--closing-radius", "2"), ("--hole-expand-radius", "1"),
                          ("--threads", "1")):
        assert flag in out
        assert f"default: {default}" in out
