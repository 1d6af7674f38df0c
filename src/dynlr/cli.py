"""Command-line front end for reproducible reconstruction experiments.

Subcommands: ``mask`` and ``phantom`` generate inputs, ``encode`` applies
retrospective undersampling, ``recon`` runs a solver, ``eval`` compares two
volumes, ``tune`` grid-searches solver hyper-parameters.  All data moves
through the ``.hdr``/``.dat`` volume format; solver settings move through
flat ``key=value`` config files.

Exit codes: 0 success, 2 usage or configuration error, 3 data or file
format error, 4 numeric failure during a solve.
"""

import argparse
import dataclasses
import json
import math
import sys

from .core import (
    LR_MODES,
    PLACEMENTS,
    TRANSFORM_KINDS,
    ConfigError,
    DataError,
    KSpaceData,
    NumericError,
    SolverConfig,
    _parse_float,
    _parse_int,
)
from .dataio import _write_whole, read_cplx, read_mask, write_cplx, write_mask
# psnr and ssim stay module attributes, so that callers can wrap every layer by name.
from .metrics import psnr, ssim  # noqa: F401
from .operators import encode
from .sim import DEFAULT_SIGMA_FRAC, PHANTOM_KINDS, make_phantom, make_vd_mask
# tune_hyperparams stays a module attribute, like psnr; cmd_tune calls _tune for the score.
from .solvers import SOLVER_NAMES, _scores, _tune, default_config, run_solver, tune_hyperparams  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# SolverConfig field name -> its type (int, float or str), for reading and writing.
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SolverConfig)}
_TOKEN_PARSERS = {int: _parse_int, float: _parse_float, str: str}


def _parse_field_value(name, token):
    """Convert ``token`` with the type of SolverConfig field ``name``."""
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config field {name!r}")
    try:
        return _TOKEN_PARSERS[_FIELD_TYPES[name]](token)
    except ValueError as exc:
        raise ConfigError(f"bad value {token!r} for config field {name!r}") from exc


def read_config_file(path) -> dict:
    """Parse a key=value config file into typed overrides."""
    overrides = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not ASCII: {exc}") from exc
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r} (expected key=value)")
        key, _, token = line.partition("=")
        key, token = key.strip(), token.strip()
        if key in overrides:
            raise ConfigError(f"config field {key!r} is given more than once")
        overrides[key] = _parse_field_value(key, token)
    return overrides


def write_config_file(path, cfg: SolverConfig) -> None:
    """Write ``cfg`` as key=value lines, formatted by field type so that numpy scalars read back; whole or not at all."""
    lines = []
    for name, kind in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        lines.append(f"{name}={repr(float(value)) if kind is float else value}\n")
    _write_whole(path, "".join(lines).encode("ascii"))


def parse_grid_spec(spec: str) -> dict:
    """Parse "field=v1,v2;field2=v1,..." into a typed search space."""
    space = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"bad grid token {chunk!r} (expected field=v1,v2,...)")
        name, _, values = chunk.partition("=")
        name = name.strip()
        tokens = [tok.strip() for tok in values.split(",") if tok.strip()]
        if not tokens:
            raise ConfigError(f"grid field {name!r} lists no values")
        if name in space:
            raise ConfigError(f"grid field {name!r} is given more than once")
        space[name] = [_parse_field_value(name, tok) for tok in tokens]
    if not space:
        raise ConfigError("empty grid specification")
    return space


def _parse_dc(flag):
    """Parse --dc replace | weighted:NU into (mode, nu)."""
    if flag == "replace":
        return "replace", 1.0
    if flag.startswith("weighted:"):
        token = flag.partition(":")[2]
        try:
            return "weighted", _parse_float(token)
        except ValueError as exc:
            raise ConfigError(f"bad weighted data-consistency weight {token!r}") from exc
    raise ConfigError(f"bad --dc value {flag!r} (expected replace or weighted:NU)")


def _flag_type(parse):
    """An argparse ``type`` that reads a token with ``parse``; a ValueError is a usage error."""

    def read(token):
        try:
            return parse(token)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


_INT, _FLOAT = _flag_type(_parse_int), _flag_type(_parse_float)


def _add_solver_flags(parser):
    parser.add_argument("--solver", required=True, choices=SOLVER_NAMES)
    parser.add_argument("--config", help="key=value config file applied before explicit flags")
    parser.add_argument(
        "--placement", choices=[p.lower() for p in PLACEMENTS], help="low-rank module placement"
    )
    parser.add_argument("--iters", type=_INT, help="number of iterations")
    parser.add_argument("--lambda1", type=_FLOAT, help="sparse regularization weight")
    parser.add_argument("--lambda2", type=_FLOAT, help="low-rank regularization weight")
    parser.add_argument("--rho", type=_FLOAT, help="penalty parameter")
    parser.add_argument("--eta1", type=_FLOAT, help="multiplier update rate")
    parser.add_argument("--eta2", type=_FLOAT, help="gradient step size")
    parser.add_argument("--rank-k", type=_INT, help="retained rank of the hard thresholding step")
    parser.add_argument("--p", type=_FLOAT, help="singular-value shrinkage exponent in (0, 1]")
    parser.add_argument("--lr-mode", choices=LR_MODES, help="low-rank thresholding mode")
    parser.add_argument("--dc", help="data consistency: replace or weighted:NU")
    parser.add_argument("--transform", choices=TRANSFORM_KINDS, help="temporal sparsifying transform")


def _flag_overrides(args) -> dict:
    overrides = {}
    if args.placement is not None:
        overrides["placement"] = args.placement.upper()
    if args.iters is not None:
        overrides["iterations"] = args.iters
    same_name = ("lambda1", "lambda2", "rho", "eta1", "eta2", "rank_k", "p", "lr_mode", "transform")
    for field in same_name:
        value = getattr(args, field)
        if value is not None:
            overrides[field] = value
    if args.dc is not None:
        mode, nu = _parse_dc(args.dc)
        overrides["dc_mode"] = mode
        overrides["dc_nu"] = nu
    return overrides


def _load_kspace(ksp_path, mask_path) -> KSpaceData:
    vol = read_cplx(ksp_path)
    mask = read_mask(mask_path)
    return KSpaceData(vol.data, mask)


def _build_config(args, y: KSpaceData) -> SolverConfig:
    overrides = {}
    if args.config:
        overrides.update(read_config_file(args.config))
    overrides.update(_flag_overrides(args))
    return default_config(y, **overrides)


def _metric_lines(scores, size, as_json):
    """Report of ``ReconReport.metrics``-style scores of ``size`` elements; no ssim is null (n/a)."""
    raw, p, s = scores["mse"], scores["psnr"], scores.get("ssim")
    scaled = raw / size * 1e5
    if as_json:
        payload = {
            "mse": raw,
            "mse_per_element_e5": scaled,
            "psnr": "inf" if math.isinf(p) else round(p, 6),
            "ssim": None if s is None else round(s, 6),
        }
        return [json.dumps(payload, sort_keys=True)]
    psnr_text = "inf" if math.isinf(p) else f"{p:.4f}"
    return [
        f"mse={raw:.6e}",
        f"mse_e5={scaled:.4f}",
        f"psnr={psnr_text}",
        "ssim=n/a" if s is None else f"ssim={s:.4f}",
    ]


def cmd_mask(args):
    mask = make_vd_mask(
        ny=args.ny,
        nt=args.nt,
        acceleration=args.accel,
        sigma_frac=args.sigma_frac,
        seed=args.seed,
        per_frame=not args.static_pattern,
    )
    write_mask(args.out, mask)
    print(f"wrote {args.out}.hdr {args.out}.dat")
    print(f"achieved acceleration: {mask.achieved_acceleration:.4f}")
    return EXIT_OK


def cmd_phantom(args):
    img = make_phantom(
        nx=args.nx,
        ny=args.ny,
        nt=args.nt,
        kind=args.kind,
        seed=args.seed,
        rank=args.rank,
        sparsity=args.sparsity,
    )
    write_cplx(args.out, img)
    print(f"wrote {args.out}.hdr {args.out}.dat")
    return EXIT_OK


def cmd_encode(args):
    img = read_cplx(args.image)
    mask = read_mask(args.mask)
    ksp = encode(img, mask)
    write_cplx(args.out, ksp.data)
    print(f"wrote {args.out}.hdr {args.out}.dat")
    return EXIT_OK


def _write_trace(path, records):
    """Write one JSON line per record to ``path``, whole or not at all."""
    _write_whole(path, "".join(json.dumps(dataclasses.asdict(rec)) + "\n" for rec in records).encode("ascii"))


def cmd_recon(args):
    y = _load_kspace(args.ksp, args.mask)
    cfg = _build_config(args, y)
    reference = read_cplx(args.ref) if args.ref else None
    try:
        report = run_solver(args.solver, y, cfg, reference=reference)
    except NumericError as exc:
        # A failed solve still leaves the iterations it completed on disk.
        if args.trace:
            _write_trace(args.trace, exc.trace)
        raise
    write_cplx(args.out, report.image)
    print(f"wrote {args.out}.hdr {args.out}.dat ({report.seconds:.2f} s)")
    if args.trace:
        _write_trace(args.trace, report.trace)
    if reference is not None:
        for line in _metric_lines(report.metrics, reference.data.size, as_json=False):
            print(line)
    return EXIT_OK


def cmd_eval(args):
    ref = read_cplx(args.ref)
    rec = read_cplx(args.rec)
    for line in _metric_lines(_scores(ref, rec), ref.data.size, as_json=args.json):
        print(line)
    return EXIT_OK


def cmd_tune(args):
    y = _load_kspace(args.ksp, args.mask)
    reference = read_cplx(args.ref)
    space = parse_grid_spec(args.grid)
    base = _build_config(args, y)
    best, score = _tune(y, reference, space, args.solver, base=base)
    write_config_file(args.out, best)
    print(f"wrote {args.out}")
    print(f"best psnr: {score:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynlr",
        description="Sparse and low-rank dynamic MRI reconstruction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="generate a Gaussian variable-density sampling mask")
    p.add_argument("--ny", type=_INT, required=True)
    p.add_argument("--nt", type=_INT, required=True)
    p.add_argument("--accel", type=_FLOAT, required=True)
    p.add_argument("--sigma-frac", type=_FLOAT, default=DEFAULT_SIGMA_FRAC)
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--static-pattern", action="store_true", help="same lines in every frame")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("phantom", help="generate a synthetic dynamic phantom")
    p.add_argument("--nx", type=_INT, required=True)
    p.add_argument("--ny", type=_INT, required=True)
    p.add_argument("--nt", type=_INT, required=True)
    p.add_argument("--kind", default="beating_rings", help=f"one of {', '.join(PHANTOM_KINDS)}")
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--rank", type=_INT, default=1)
    p.add_argument("--sparsity", type=_INT, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("encode", help="retrospectively undersample a volume into k-space")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("recon", help="reconstruct undersampled k-space")
    p.add_argument("--ksp", required=True)
    p.add_argument("--mask", required=True)
    _add_solver_flags(p)
    p.add_argument("--ref", help="reference volume; prints metrics when given")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--trace",
        help="write per-iteration diagnostics as JSON lines, also for a solve that fails",
    )
    p.set_defaults(func=cmd_recon)

    p = sub.add_parser("eval", help="compare a reconstruction against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--rec", required=True)
    p.add_argument("--json", action="store_true", help="print one machine-readable JSON line")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="grid-search solver hyper-parameters")
    p.add_argument("--ksp", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--grid", required=True, help='e.g. "lambda1=1e-4,1e-3;rank_k=2,4"')
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run():
    sys.exit(main())
