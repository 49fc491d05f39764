"""Command-line front end: restore, degrade, eval, edges.

One executable with four subcommands. Validation failures (bad flags,
config contradictions, mismatched image sizes) exit 2; file problems
(missing, malformed, truncated) exit 1; success exits 0. Reports go to
standard output, diagnostics to standard error.

Outputs are written by the library savers, which write a temporary file
and rename it into place, so a failing run never leaves a partial or
clobbered output behind.

Pipeline settings resolve in three layers: the dataclass defaults of
KernelParams, StructuringElement and PipelineConfig, then an
optional config file of flat `key = value` lines (`#` starts a
comment), then explicit command-line flags. Unknown config keys are an
error; silently ignoring a typo would quietly run with defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields

from .errors import ContractViolation, FormatError, require_real
from .image_model import (
    DepthMap,
    load_color_ppm,
    load_depth_pgm,
    save_color_ppm,
    save_depth_pgm,
    save_mask_pgm,
    to_grayscale,
)
from .edge_analysis import detect_edges, sobel_gradients, theta_to_units
from .kernels import SIGMA_DEPTH_INFINITE, KernelParams
from .pipeline import DEFAULT_EDGE_THRESHOLD, PipelineConfig, restore
from .preprocess import StructuringElement
from .evaluate import DEFAULT_TAU, SCENE_KINDS, DegradeSpec, compare, degrade, make_scene

DEGRADE_SCENE_SIZE = (160, 120)

_KERNEL_DEFAULTS = asdict(KernelParams())
_CONFIG_DEFAULTS = {k: v for k, v in asdict(PipelineConfig()).items()
                    if k not in ("kernel", "se")}
_DEFAULTS = {**_KERNEL_DEFAULTS, **_CONFIG_DEFAULTS,
             "closing_radius": StructuringElement().radius}

_BOOL_KEYS = {k for k, v in _DEFAULTS.items() if type(v) is bool}
_INT_KEYS = {k for k, v in _DEFAULTS.items() if type(v) is int} | {"r_edge"}

# (config key, help text) for each valued pipeline flag; the flag is
# the key with dashes, and its type and default come from _DEFAULTS.
_FLAG_HELP = (
    ("sigma_s", "isotropic spatial sigma, pixels"),
    ("sigma_r_color", "color range sigma, intensity units"),
    ("sigma_r_depth", f"depth range sigma, mm; >= {SIGMA_DEPTH_INFINITE:g} disables"),
    ("sigma_x", "directional sigma along the edge, pixels"),
    ("sigma_y", "directional sigma across the edge, pixels"),
    ("window_radius", "filter window radius, pixels"),
    ("edge_threshold", "gradient magnitude threshold"),
    ("r_edge", "edge region radius, pixels"),
    ("hole_expand_radius", "hole growth across edge pixels, pixels"),
    ("max_fill_passes", "fill pass cap across both phases"),
    ("closing_radius", "structuring element radius for closing"),
    ("threads", "worker threads, 0 = auto; never changes output"),
)


def parse_config_file(path: str) -> dict:
    """Read flat `key = value` settings; see module doc for the format."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise FormatError(f"cannot read config file {path}: {e}") from e
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractViolation(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ContractViolation(f"{path}:{lineno}: unknown config key {key!r}")
        settings[key] = _parse_value(key, value, f"{path}:{lineno}")
    return settings


def _parse_value(key: str, value: str, where: str):
    if key in _BOOL_KEYS:
        low = value.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ContractViolation(f"{where}: {key} wants true/false, got {value!r}")
    try:
        if key in _INT_KEYS:
            return int(value)
        return float(value)
    except ValueError:
        raise ContractViolation(f"{where}: bad value for {key}: {value!r}") from None


def assemble_pipeline_config(args) -> PipelineConfig:
    """Merge defaults, config file, and flags into one config."""
    values = dict(_DEFAULTS)
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return PipelineConfig(
        kernel=KernelParams(**{k: values[k] for k in _KERNEL_DEFAULTS}),
        se=StructuringElement(radius=values["closing_radius"]),
        **{k: values[k] for k in _CONFIG_DEFAULTS},
    )


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    for key, text in _FLAG_HELP:
        default = _DEFAULTS[key]
        shown = "window radius" if default is None else default
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=int if key in _INT_KEYS else float,
                       help=f"{text} (default: {shown})")
    p.add_argument("--config", help="key = value settings file (flags win over file)")
    p.add_argument("--isotropic-only", action="store_true", dest="isotropic_only",
                   default=None,
                   help="ablation: isotropic JBF everywhere (default: off)")


def cmd_restore(args) -> int:
    """Restore args.depth guided by args.color into args.out and print
    the report. The loaded maps go straight into restore, which drops the
    depth once the closing has read it (pipeline.restore)."""
    cfg = assemble_pipeline_config(args)
    restored, _, report = restore(load_depth_pgm(args.depth), load_color_ppm(args.color), cfg)
    save_depth_pgm(restored, args.out)
    for line in report.lines():
        print(line)
    return 0


def cmd_degrade(args) -> int:
    spec = DegradeSpec(**{f.name: getattr(args, f.name) for f in fields(DegradeSpec)})
    if (args.clean is None) == (args.scene is None):
        raise ContractViolation("give exactly one input: a clean PGM path or --scene")
    if args.scene is not None:
        w, h = DEGRADE_SCENE_SIZE
        clean, color = make_scene(args.scene, w, h)
        stem, ext = os.path.splitext(args.out)
        save_depth_pgm(clean, stem + "_clean" + (ext or ".pgm"))
        save_color_ppm(color, stem + "_color.ppm")
    else:
        clean = load_depth_pgm(args.clean)
    degraded = degrade(clean, spec)
    save_depth_pgm(degraded, args.out)
    return 0


def cmd_eval(args) -> int:
    require_real("tau", args.tau, ge=0)
    ref = load_depth_pgm(args.ref)
    test = load_depth_pgm(args.test)
    report = compare(ref, test, tau=args.tau)
    for line in report.lines():
        print(line)
    return 0


def cmd_edges(args) -> int:
    require_real("edge threshold", args.edge_threshold, gt=0)
    guide = load_color_ppm(args.color)
    grad = sobel_gradients(to_grayscale(guide))
    edges = detect_edges(grad, args.edge_threshold)
    save_mask_pgm(edges.edge, args.out_prefix + "_edges.pgm")
    save_depth_pgm(DepthMap(theta_to_units(edges.theta)), args.out_prefix + "_theta.pgm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthrestore",
        description="Depth map restoration guided by a registered color image.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("restore", help="denoise and hole-fill a depth map")
    p.add_argument("depth", help="input depth map, 16-bit PGM")
    p.add_argument("color", help="registered color guide, PPM")
    p.add_argument("out", help="output depth map path")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("degrade", help="synthesize a corrupted depth map")
    p.add_argument("clean", nargs="?", default=None,
                   help="clean input depth map (omit when using --scene)")
    p.add_argument("out", help="output depth map path")
    p.add_argument("--scene", choices=SCENE_KINDS,
                   help="generate this {}x{} scene instead of reading a file; also "
                        "writes <out>_clean.pgm and <out>_color.ppm".format(*DEGRADE_SCENE_SIZE))
    spec = DegradeSpec()
    p.add_argument("--seed", type=int, default=spec.seed,
                   help=f"64-bit RNG seed (default: {spec.seed})")
    p.add_argument("--noise-sigma", type=float, default=spec.noise_sigma, dest="noise_sigma",
                   help=f"Gaussian depth noise sigma, mm (default: {spec.noise_sigma})")
    p.add_argument("--speckle", type=float, default=spec.speckle_hole_fraction,
                   dest="speckle_hole_fraction", metavar="SPECKLE",
                   help="fraction of pixels punched to holes "
                        f"(default: {spec.speckle_hole_fraction})")
    p.add_argument("--edge-hole-radius", type=int, default=spec.edge_hole_radius,
                   dest="edge_hole_radius",
                   help="hole band radius at depth discontinuities "
                        f"(default: {spec.edge_hole_radius})")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("eval", help="compare two depth maps")
    p.add_argument("ref", help="reference depth map, 16-bit PGM")
    p.add_argument("test", help="depth map under test, 16-bit PGM")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU,
                   help=f"bad pixel threshold, mm (default: {DEFAULT_TAU})")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("edges", help="dump edge mask and orientation map")
    p.add_argument("color", help="color image, PPM")
    p.add_argument("out_prefix", help="output path prefix")
    p.add_argument("--edge-threshold", type=float, dest="edge_threshold",
                   default=DEFAULT_EDGE_THRESHOLD,
                   help=f"gradient magnitude threshold (default: {DEFAULT_EDGE_THRESHOLD})")
    p.set_defaults(func=cmd_edges)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
