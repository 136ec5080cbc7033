"""Command-line entry point: simulate, estimate, eval, and flops subcommands.

Exit codes: 0 on success, 1 for any ``ValueError``, which means bad
input: a bad argument, mask specification, ``--vthr-sweep`` range, config
key or config value, a malformed config JSON, WAV or mask file, or a
spectrogram the estimators cannot use (numpy's ``LinAlgError`` is a
``ValueError`` too). 2 for I/O failures, such as a missing ``--input``
file, and internal errors. Every failure prints a single machine-parsable
line ``error: <message>`` to stderr. ``eval`` bounds worker parallelism,
without affecting output bytes, by the first of ``--jobs``, the config's
``jobs``, the environment variable ``DOALAB_JOBS`` and 1 that is set.
A mask value, of ``--mask`` or a config's ``masks``, is read by
:func:`doalab.evaluate.parse_mask` alone; a ``file:PATH`` must exist when the
config is validated. ``--vthr-sweep LO:HI:STEP`` adds to the config's ``masks``
the binarized oracle ratio masks from LO up to HI, all three in whole hundredths.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import estimate, evaluate, simulate
from .geometry import SPEED_OF_SOUND, ArrayGeometry, make_grid
from .signal import DEFAULT_HOP, DEFAULT_WINDOW_LENGTH, TimeSignal, read_wav, stft, wav_rate, write_wav


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _load_config(path) -> dict:
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object, got {type(config).__name__}")
    return config


def _parse_frames(text):
    try:
        a, b = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid frame range {text!r}, expected A:B") from exc
    return (a, b)


def cmd_simulate(args) -> int:
    # every scene is built, and so checked, and the WAV rate checked, before the output directory is made
    cfg = evaluate.validate_config(_load_config(args.config))
    scenes = evaluate._scene_specs(cfg)
    wav_rate(cfg["sample_rate"], cfg["geometry"]["num_mics"])
    os.makedirs(args.out_dir, exist_ok=True)
    for scene_id, spec in scenes:
        truth = simulate.mix_scene(spec)
        write_wav(os.path.join(args.out_dir, f"{scene_id}.wav"), truth.mixture)
        write_wav(os.path.join(args.out_dir, f"{scene_id}.direct.wav"), truth.direct[0])
        simulate.save_scene_sidecar(os.path.join(args.out_dir, f"{scene_id}.truth.json"), spec, truth)
    return 0


def cmd_estimate(args) -> int:
    signal = read_wav(args.input)
    geom = ArrayGeometry.uniform(signal.num_channels, args.mic_spacing, args.speed_of_sound)
    grid = make_grid(args.grid)
    spec = stft(signal, args.window_length, args.hop)

    def direct():  # read only if the mask needs the direct path; oracle masks read microphone 1 alone
        if args.direct is None:
            raise ValueError(f"mask {args.mask!r} requires --direct WAV with the direct-path signal")
        reference = read_wav(args.direct)  # its rate is checked with the oracle mask's spectrograms
        if reference.samples.shape != signal.samples.shape:
            raise ValueError("--direct holds {} channel(s) of {} samples, --input {} of {}; they must match".format(
                *reference.samples.shape, *signal.samples.shape))
        return stft(TimeSignal(reference.samples[:1], reference.sample_rate), args.window_length, args.hop)

    mask = evaluate.build_masks([args.mask], spec, direct)[0]

    core = estimate.EstimatorCore(spec, grid, geom, args.frames, max_freq_hz=args.max_freq_hz)
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
    if args.methods is not None:
        config["methods"] = args.methods.split(",")
    if args.vthr_sweep is not None:
        try:
            lo, hi, step = (float(x) for x in args.vthr_sweep.split(":"))
        except ValueError as exc:
            raise ValueError("invalid --vthr-sweep, expected LO:HI:STEP") from exc
        if not (step > 0 and 0 <= lo <= hi <= 1):
            raise ValueError(f"--vthr-sweep {args.vthr_sweep} needs STEP > 0 and 0 <= LO <= HI <= 1")
        hundredths = [x * 100 for x in (lo, hi, step)]  # finite, as the range check above holds
        lo, hi, step = (round(x) for x in hundredths)
        if step < 1 or any(abs(x - round(x)) > 1e-7 for x in hundredths):
            raise ValueError(f"--vthr-sweep {args.vthr_sweep} needs LO, HI and STEP in whole hundredths")
        thresholds = range(lo, hi + 1, step)  # at most 101, and none above HI
        masks = config.get("masks", evaluate._DEFAULTS["masks"])  # validate_config names any non-list
        config["masks"] = masks + [f"oracle-ratio-bin:{t / 100:.2f}" for t in thresholds] if isinstance(masks, list) else masks
    if args.jobs is not None:
        config["jobs"] = args.jobs
    elif "jobs" not in config and "DOALAB_JOBS" in os.environ:
        env_jobs = os.environ["DOALAB_JOBS"]
        try:
            config["jobs"] = int(env_jobs)
        except ValueError as exc:
            raise ValueError(f"DOALAB_JOBS must be an integer, got {env_jobs!r}") from exc
    evaluate.run_experiment(config, out_dir=args.out_dir)
    return 0


def cmd_flops(args) -> int:
    print(estimate.srp_flops(args.K, args.C, args.Q))
    return 0


@functools.cache  # argparse keeps no state between parse_args calls, so one parser serves every main
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
    p.add_argument("--grid", type=int, default=evaluate._DEFAULTS["grid_size"])
    p.add_argument("--frames", type=_parse_frames, help="frame range A:B, 0 <= A < B <= the frame count")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.add_argument("--mic-spacing", type=float, default=evaluate._DEFAULTS["geometry"]["mic_spacing_m"])
    p.add_argument("--speed-of-sound", type=float, default=SPEED_OF_SOUND)
    p.add_argument("--window-length", type=int, default=DEFAULT_WINDOW_LENGTH)
    p.add_argument("--hop", type=int, default=DEFAULT_HOP)
    p.add_argument("--num-sources", type=int, default=evaluate._DEFAULTS["num_sources_music"])
    p.add_argument("--max-freq-hz", type=float)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("eval", help="run a seeded experiment grid and write reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--methods", help="comma-separated method override")
    p.add_argument("--vthr-sweep", help="LO:HI:STEP sweep, in hundredths, of binarized oracle ratio masks")
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
    except Exception as exc:  # noqa: BLE001 - the single exit path of every failure
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValueError) else 2


if __name__ == "__main__":
    sys.exit(main())
