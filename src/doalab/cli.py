"""Command-line entry point: simulate, estimate, eval, and flops subcommands.

Exit codes: 0 on success, 1 for usage errors (bad arguments, mask
specifications, ``--vthr-sweep`` ranges, config keys and config
values), 2 for runtime failures.
Every failure prints a single machine-parsable line ``error: <message>``
to stderr. ``eval`` bounds worker parallelism, without affecting output
bytes, by the first of ``--jobs``, the config's ``jobs``, the environment
variable ``DOALAB_JOBS`` and 1 that is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import estimate, evaluate, simulate
from .geometry import ArrayGeometry, make_grid
from .signal import read_wav, stft, write_wav


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_config(path) -> dict:
    if not os.path.exists(path):
        raise _UsageError(f"config file not found: {path}")
    with open(path) as fh:
        return json.load(fh)


def _parse_frames(text):
    if text is None:
        return None
    try:
        a, b = text.split(":")
        return (int(a), int(b))
    except ValueError as exc:
        raise _UsageError(f"invalid frame range {text!r}, expected A:B") from exc


def cmd_simulate(args) -> int:
    cfg = evaluate.validate_config(_load_config(args.config))
    os.makedirs(args.out_dir, exist_ok=True)
    for scene_id, _, spec in evaluate._scene_specs(cfg):
        truth = simulate.mix_scene(spec)
        write_wav(os.path.join(args.out_dir, f"{scene_id}.wav"), truth.mixture)
        write_wav(os.path.join(args.out_dir, f"{scene_id}.direct.wav"), truth.direct[0])
        simulate.save_scene_sidecar(
            os.path.join(args.out_dir, f"{scene_id}.truth.json"), spec, truth
        )
    return 0


def cmd_estimate(args) -> int:
    signal = read_wav(args.input)
    spec = stft(signal, args.window_length, args.hop)
    geom = ArrayGeometry.uniform(signal.num_channels, args.mic_spacing, args.speed_of_sound)
    grid = make_grid(args.grid)
    frame_range = _parse_frames(args.frames)

    kind = args.mask
    if kind not in ("none", "ones") and os.path.isfile(kind):
        kind = f"file:{kind}"
    direct = None
    if kind.startswith("oracle"):
        if args.direct is None:
            raise _UsageError(f"mask {args.mask!r} requires --direct WAV with the direct-path signal")
        direct = stft(read_wav(args.direct), args.window_length, args.hop)
    try:
        mask = evaluate.build_mask(kind, spec, direct)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    core = estimate.EstimatorCore(spec, grid, geom, frame_range, max_freq_hz=args.max_freq_hz)
    sps = core.spectra(args.method, [mask], args.num_sources)[0]
    payload = {
        "method": args.method,
        "mask": args.mask,
        "grid_deg": list(grid.angles_deg),
        "picked_doa_deg": estimate.pick_doa(sps, grid),
    }
    if args.method != "music":
        payload["sps_per_frame"] = core.per_frame(args.method, mask).T.tolist()
    out = json.dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    if args.methods:
        config["methods"] = args.methods.split(",")
    if args.vthr_sweep:
        try:
            lo, hi, step = (float(x) for x in args.vthr_sweep.split(":"))
        except ValueError as exc:
            raise _UsageError("invalid --vthr-sweep, expected LO:HI:STEP") from exc
        if not (step > 0 and 0 <= lo <= hi <= 1):
            raise _UsageError(f"--vthr-sweep {args.vthr_sweep} needs STEP > 0 and 0 <= LO <= HI <= 1")
        thresholds = np.arange(lo, hi + step / 2, step)
        config.setdefault("masks", [])
        config["masks"] = list(config["masks"]) + [
            f"oracle-ratio-bin:{t:.2f}" for t in thresholds
        ]
    if args.jobs is not None:
        config["jobs"] = args.jobs
    elif "jobs" not in config and "DOALAB_JOBS" in os.environ:
        env_jobs = os.environ["DOALAB_JOBS"]
        try:
            config["jobs"] = int(env_jobs)
        except ValueError as exc:
            raise _UsageError(f"DOALAB_JOBS must be an integer, got {env_jobs!r}") from exc
    evaluate.run_experiment(config, out_dir=args.out_dir)
    return 0


def cmd_flops(args) -> int:
    if min(args.K, args.C, args.Q) < 1:
        raise _UsageError("K, C, and Q must all be at least 1")
    print(estimate.srp_flops(args.K, args.C, args.Q))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="doalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate scene WAVs plus ground-truth JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate the DOA of a multichannel WAV")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--mask",
        default="none",
        help=f"{evaluate.MASK_KINDS}, or a mask file path; random-band uses seed 0",
    )
    p.add_argument("--direct", help="direct-path WAV needed by oracle masks")
    p.add_argument("--method", default="srp-p", choices=estimate.METHODS)
    p.add_argument("--grid", type=int, default=37)
    p.add_argument("--frames", help="frame range A:B")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.add_argument("--mic-spacing", type=float, default=0.08)
    p.add_argument("--speed-of-sound", type=float, default=343.0)
    p.add_argument("--window-length", type=int, default=512)
    p.add_argument("--hop", type=int, default=256)
    p.add_argument("--num-sources", type=int, default=1)
    p.add_argument("--max-freq-hz", type=float)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("eval", help="run a seeded experiment grid and write reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--methods", help="comma-separated method override")
    p.add_argument("--vthr-sweep", help="LO:HI:STEP sweep of binarized oracle ratio masks")
    p.add_argument("--jobs", type=int, help="worker processes (default: config jobs, then DOALAB_JOBS, then 1)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="flop count of the SRP complexity model")
    p.add_argument("K", type=int)
    p.add_argument("C", type=int)
    p.add_argument("Q", type=int)
    p.set_defaults(func=cmd_flops)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, evaluate.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - single runtime exit path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
