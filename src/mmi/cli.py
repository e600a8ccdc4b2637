"""Command-line surface: simulate, verify (whose checks live in :mod:`mmi.verify`), fit, coherence.

Outputs are desk-scale, human-diffable files: a CSV with a one-line header
(``tau,ratio`` or ``a,ratio``, with ``ratio_closed,ratio_quadrature`` under
``--method both``; values at 12 significant digits, LF line endings) plus
a JSON sidecar echoing the full configuration, the method used, the seed,
the library version, and a timestamp, plus the quadrature counters when
a run integrated.  CSV bytes are
deterministic for identical configuration and seed; the timestamp lives
only in the sidecar.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
failure (a quadrature or fit that fails, or a spectral closed form that
goes negative), 4 identifiability error.  A flag that the chosen simulate
scenario, fit model or coherence unit system does not read is a usage
error, not silently ignored.  A library warning prints as one
``warning: <message>`` line on stderr.

Units are dimensionless by default (frequencies in units of the spectral
width, temperatures as k_B T/ħ, delays as the matching reciprocal).  With
``--si``, temperatures are kelvin and delays seconds; the conversions use
CODATA values ħ = 1.054571817e-34 J s, k_B = 1.380649e-23 J/K (exact), and
c = 299792458 m/s (exact).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .inference import (
    DEFAULT_COHERENCE_EPSILON,
    FitProblem,
    IdentifiabilityError,
    NonConvergenceError,
    estimate_coherence_time,
    fit,
)
from .intensity import ClosedFormError, IntensityRequest, compute_interferogram
from .quadrature import QuadratureError
from .spectra import SpectralDistribution
from .states import Coherent, OnePhoton, Thermal, Vacuum

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J/K (exact)
C_LIGHT = 299792458.0  # m/s (exact)

_EXIT_OK = 0
_EXIT_VERIFY_FAIL = 1
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_IDENTIFIABILITY = 4


def _parse_grid(spec: str) -> np.ndarray:
    """'start:stop:count' -> uniform inclusive grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError(f"grid bounds must be finite, got {spec!r}")
    if not np.isfinite(stop - start):
        raise ValueError(f"grid span overflows the floating-point range, got {spec!r}")
    count = int(parts[2])
    if count < 1:
        raise ValueError("grid count must be at least 1")
    return np.linspace(start, stop, count)


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:  # LF line endings on every platform
        np.savetxt(fh, np.column_stack([np.ravel(c) for c in columns.values()]), fmt="%.12g", delimiter=",",
                   header=",".join(columns), comments="")


def _write_json(path, payload: dict, *, echo: bool = False) -> None:
    """Write ``payload`` and the library version as sorted, indented JSON to ``path`` (if any).

    With ``echo`` the document is a command's result and is printed too; it
    carries no timestamp, so equal inputs print equal bytes.  A document only
    written to a file records the UTC time it was written.
    """
    payload = {**payload, "version": __version__}
    if not echo:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    if echo:
        print(text, end="")


def read_interferogram_csv(path: Path):
    """Read (x, ratio[, noise]) columns; returns (x_name, x, ratio, noise|None).

    The body is numpy's CSV: LF or CRLF line ends, optionally quoted cells,
    blank lines skipped, and no comment character.
    """
    with open(path, newline="") as fh:
        cells = [cell.strip() for cell in fh.readline().split(",")]
        lines = fh.readlines()
    header = [c[1:-1].strip() if len(c) > 1 and c[0] == c[-1] == '"' else c for c in cells]  # unquote a name
    if len(header) < 2 or header[0] not in ("tau", "a") or header[1] != "ratio":
        raise ValueError(f"{path}: expected header 'tau,ratio' or 'a,ratio', got {header}")
    if len(header) > 3 or (len(header) == 3 and header[2] != "noise"):
        raise ValueError(f"{path}: unsupported columns {header[2:]}")
    if not any(line.strip() for line in lines):  # numpy only warns on an empty body
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed numeric row ({exc})") from None
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: inconsistent column count")
    noise = data[:, 2] if data.shape[1] == 3 else None
    return header[0], data[:, 0], data[:, 1], noise


# ---------------------------------------------------------------------------
# simulate


def _spectral_ports(port):
    def ports(args):
        f_s = SpectralDistribution(args.wbar_s, args.sigma)
        f_lo = SpectralDistribution(args.wbar_lo, args.sigma if args.sigma_lo is None else args.sigma_lo)
        return port(f_s), port(f_lo)

    return ports


def _one_photon_vacuum_ports(args):
    return OnePhoton(SpectralDistribution(args.wbar_s, args.sigma)), Vacuum()


def _temperature(args, value):
    return value * K_B / HBAR if args.si else value


def _thermal_vacuum_ports(args):
    return Thermal(_temperature(args, args.theta)), Vacuum()


def _thermal_pair_ports(args):
    theta0 = _temperature(args, args.theta0)
    return Thermal(args.t1_over_t0 * theta0), Thermal(theta0)


# Each simulate scenario: its help, the flags it reads beyond --grid,
# --method, --d and --out, and the (signal, LO) ports it builds from them.
# The parser offers a scenario only its own flags; its sidecar records them.
_SPECTRAL_PAIR_FLAGS = ("wbar_s", "wbar_lo", "sigma", "sigma_lo")
_SIMULATE = {
    "fock": ("one-photon wavepackets in both ports", _SPECTRAL_PAIR_FLAGS, _spectral_ports(OnePhoton)),
    "coherent": ("coherent states in both ports", _SPECTRAL_PAIR_FLAGS, _spectral_ports(Coherent)),
    "one-photon-vacuum": ("one-photon signal against vacuum", ("wbar_s", "sigma"), _one_photon_vacuum_ports),
    "thermal-vacuum": ("thermal signal against vacuum", ("theta", "si"), _thermal_vacuum_ports),
    "thermal-thermal": (
        "thermal signal against a thermal reference", ("theta0", "t1_over_t0", "si"), _thermal_pair_ports,
    ),
}

# dest -> (option strings, add_argument keywords) of every scenario flag
_SIMULATE_FLAGS = {
    "wbar_s": (("--wbar-s",), {"type": float, "default": 3.0, "help": "signal mean frequency (units of sigma)"}),
    "wbar_lo": (("--wbar-lo",), {"type": float, "default": 3.15, "help": "LO mean frequency"}),
    "sigma": (("--sigma",), {"type": float, "default": 1.0, "help": "spectral width"}),
    "sigma_lo": (("--sigma-lo",), {"type": float, "default": None, "help": "LO width (defaults to --sigma)"}),
    "theta": (("--theta",), {"type": float, "default": 1.0, "help": "signal temperature"}),
    "theta0": (("--theta0",), {"type": float, "default": 1.0, "help": "LO (reference) temperature"}),
    "t1_over_t0": (("--t1/t0",), {"type": float, "default": 1.01, "help": "signal/reference temperature ratio"}),
    "si": (("--si",), {"action": "store_true", "help": "temperatures in kelvin, delays in seconds"}),
}


def _x_column(args, thermal: bool) -> str:
    """The CSV delay column: a = τθ of the reference for thermal data, τ otherwise or with ``--si``
    (read only for thermal data; the spectral simulate scenarios have no ``--si``)."""
    return "a" if thermal and not args.si else "tau"


def _simulate_ports(args, grid):
    """(signal, lo, delays, x column, config) of a simulate scenario.

    Spectral grids are τ in units of 1/σ.  Thermal grids are a = τθ
    (a₀ = τθ₀ for the pair), or τ in seconds with ``--si``.
    """
    _, flags, ports = _SIMULATE[args.scenario]
    signal, lo = ports(args)
    config = {dest: getattr(args, dest) for dest in flags}
    x_name = _x_column(args, isinstance(signal, Thermal))
    if x_name == "tau":
        return signal, lo, grid, x_name, config
    return signal, lo, grid / (lo if isinstance(lo, Thermal) else signal).theta, x_name, config


def cmd_simulate(args) -> int:
    grid = _parse_grid(args.grid)
    signal, lo, taus, x_name, config = _simulate_ports(args, grid)
    both = args.method == "both"
    methods = ("closed_form", "quadrature") if both else (args.method,)
    names = ("ratio_closed", "ratio_quadrature") if both else ("ratio",)
    columns = {x_name: grid}
    for name, method in zip(names, methods):
        gram = compute_interferogram(IntensityRequest(signal, lo, taus, args.d, method))
        columns[name] = gram.ratios
    method_used = "both" if both else gram.metadata["method"]

    config.setdefault("si", False)  # spectral scenarios have no --si
    config.update(scenario=args.scenario, grid=args.grid, method=args.method, d=gram.metadata["dimension"])
    out = Path(args.out) if args.out else Path(f"mmi_{args.scenario.replace('-', '_')}.csv")
    write_csv(out, columns)
    sidecar = out.with_suffix(".json")
    # under --method both the last run is the quadrature one
    counters = {"quadrature": gram.metadata["quadrature"]} if "quadrature" in gram.metadata else {}
    _write_json(sidecar, {"config": config, "method": method_used, "seed": None, **counters})
    print(f"wrote {out} and {sidecar}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify  # it loads the oracles, which no other command needs

    checks = verify.run_verification(quick=args.quick)
    for check in checks:
        print(f"[{'PASS' if check['passed'] else 'FAIL'}] {check['name']}: max deviation "
              f"{check['max_deviation']:.3e} (tolerance {check['tolerance']:.3e})")
    if args.out:
        _write_json(args.out, {"checks": checks, "quick": args.quick, "seed": verify.MC_SEED})
    failed = [check["name"] for check in checks if not check["passed"]]
    if failed:
        print(f"verification FAILED for: {', '.join(failed)}", file=sys.stderr)
        return _EXIT_VERIFY_FAIL
    print("all scenarios PASS")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# fit


# Each fit model: its library model, the flags it reads with their defaults,
# the `fixed` quantities it builds from them, and the flags of its start
# point, given together or not at all.  A flag without a default that is not
# a start flag is required.
_FIT = {
    "thermal-thermal": ("thermal_thermal", {"theta0": 1.0, "p0": None, "si": False},
                        lambda args: {"theta0": _temperature(args, args.theta0)}, ("p0",)),
    "one-photon-vacuum": ("one_photon_vacuum", {"p0": None, "p1": None}, lambda args: {}, ("p0", "p1")),
    "fock": ("fock_fock", {"wbar_lo": None, "sigma": 1.0},
             lambda args: {"lo_mean_freq": args.wbar_lo, "width_guess": args.sigma}, ()),
}
# The flags coherence reads without and with --si, and their defaults.
_COHERENCE_FLAGS = {False: {"theta": 1.0}, True: {"temperature": 2.725}}


def _own_flags(args, owned: dict, flag_sets) -> list[str]:
    """Default the flags of ``owned``; return the given flags of ``flag_sets`` that ``owned`` lacks.

    The parser defaults every flag of ``flag_sets`` to None, so a flag that
    is not None was given on the command line.
    """
    foreign = [
        "--" + dest.replace("_", "-")
        for dest in dict.fromkeys(dest for flags in flag_sets for dest in flags)
        if dest not in owned and getattr(args, dest) is not None
    ]
    for dest, default in owned.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    return foreign


def cmd_fit(args) -> int:
    model, flags, fixed_from, start = _FIT[args.model]
    foreign = _own_flags(args, flags, (entry[1] for entry in _FIT.values()))
    if foreign:
        raise ValueError(f"the {args.model} model does not read {', '.join(foreign)}")
    initial = tuple(getattr(args, dest) for dest in start if getattr(args, dest) is not None)
    if initial and len(initial) != len(start):
        together = " and ".join("--" + dest for dest in start)
        raise ValueError(f"the {args.model} model takes {together} together")
    for dest in flags:
        if dest not in start and getattr(args, dest) is None:
            raise ValueError(f"--{dest.replace('_', '-')} is required for the {args.model} model")
    x_name, x, ratios, noise = read_interferogram_csv(Path(args.data))
    expected = _x_column(args, args.model == "thermal-thermal")
    if x_name != expected:
        raise ValueError(f"the {args.model} model{' with --si' if args.si else ''} reads the x column "
                         f"'{expected}', but {args.data} has '{x_name}'")

    fixed = fixed_from(args)
    taus = x / fixed["theta0"] if expected == "a" else x  # a = τθ₀
    result = fit(FitProblem(tau=taus, ratios=ratios, model=model, fixed=fixed, initial=initial, noise=noise))
    _write_json(args.out, {
        "model": args.model,
        "estimates": result.estimates,
        "uncertainties": result.uncertainties,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "weighted": noise is not None,
        "data": str(args.data),
    }, echo=True)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# coherence


def cmd_coherence(args) -> int:
    foreign = _own_flags(args, _COHERENCE_FLAGS[args.si], _COHERENCE_FLAGS.values())
    if foreign:
        raise ValueError(f"coherence {'with' if args.si else 'without'} --si does not read {', '.join(foreign)}")
    if args.si:
        theta = _temperature(args, args.temperature)
        report = estimate_coherence_time(theta, args.epsilon, speed_of_light=C_LIGHT)
        extra = {"temperature_kelvin": args.temperature, "tau_c_seconds": report.tau_c,
                 "coherence_length_m": report.coherence_length}
    else:
        report = estimate_coherence_time(args.theta, args.epsilon)
        extra = {"theta": args.theta}
    _write_json(args.out, {"a_c": report.a_c, "tau_c": report.tau_c, "coherence_length": report.coherence_length,
                           "epsilon": report.epsilon, **extra}, echo=True)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmi",
        description="Michelson interferometer intensity engine: simulate, verify, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evaluate a scenario on a delay grid, write CSV + JSON")
    scenarios = sim.add_subparsers(dest="scenario", required=True, metavar="scenario")
    for scenario, (summary, flags, _) in _SIMULATE.items():
        # no abbreviations: --theta must not silently become --theta0
        scen = scenarios.add_parser(scenario, allow_abbrev=False, help=summary)
        for dest in flags:
            options, kwargs = _SIMULATE_FLAGS[dest]
            scen.add_argument(*options, dest=dest, **kwargs)
        scen.add_argument("--d", type=int, default=None,
                          help="space dimension the scenario admits (default 3 for thermal scenarios, 1 otherwise)")
        scen.add_argument("--grid", default="0:6:600",
                          help="delay grid start:stop:count (tau*sigma, or a for thermal scenarios); "
                               "write a negative start as --grid=-3:6:31")
        scen.add_argument("--method", default="auto",
                          choices=["auto", "closed_form", "quadrature", "both"])
        scen.add_argument("--out", "-o", default=None, help="output CSV path")
        scen.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="triangulate closed forms, quadrature, and oracles")
    ver.add_argument("--quick", action="store_true", help="skip Monte-Carlo checks")
    ver.add_argument("--out", default=None, help="optional JSON report path")
    ver.set_defaults(func=cmd_verify)

    fit_p = sub.add_parser("fit", help="fit a forward model to an interferogram CSV")
    fit_p.add_argument("data", help="CSV file matching the simulate schema")
    fit_p.add_argument("--model", required=True, choices=list(_FIT))
    fit_p.add_argument("--theta0", type=float, default=None,
                       help="known reference temperature (thermal-thermal; default 1)")
    fit_p.add_argument("--wbar-lo", type=float, default=None, help="known LO mean frequency (fock, required)")
    fit_p.add_argument("--sigma", type=float, default=None, help="width guess (fock; default 1)")
    fit_p.add_argument("--p0", type=float, default=None,
                       help="initial guess, first parameter (thermal-thermal, one-photon-vacuum)")
    fit_p.add_argument("--p1", type=float, default=None,
                       help="initial guess, second parameter (one-photon-vacuum, with --p0)")
    fit_p.add_argument("--out", default=None, help="optional JSON output path")
    fit_p.add_argument("--si", action="store_true", default=None,
                       help="CSV delays in seconds, theta0 in kelvin (thermal-thermal)")
    fit_p.set_defaults(func=cmd_fit)

    coh = sub.add_parser("coherence", help="thermal coherence time from the closed form")
    coh.add_argument("--theta", type=float, default=None, help="dimensionless temperature (default 1; not with --si)")
    coh.add_argument("--temperature", type=float, default=None, help="kelvin (with --si; default 2.725)")
    coh.add_argument("--epsilon", type=float, default=DEFAULT_COHERENCE_EPSILON,
                     help="fringe-visibility threshold in (0, 0.5)")
    coh.add_argument("--si", action="store_true")
    coh.add_argument("--out", default=None)
    coh.set_defaults(func=cmd_coherence)

    return parser


def _run(args) -> int:
    """Run the command; print each warning it raised as one line, before any error message."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return _run(args)
    except IdentifiabilityError as exc:
        print(f"identifiability error: {exc}", file=sys.stderr)
        return _EXIT_IDENTIFIABILITY
    except (QuadratureError, NonConvergenceError, ClosedFormError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
