"""Command-line front end: spectra, wavefunctions, turning points, verification.

Works entirely in scaled units: the radial equation is
f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta*r - k*r^2] f = 0, i.e. the
2M/hbar^2 factors are already absorbed into (alpha, beta, k) and energies.

For ``spectrum`` the linear coefficient beta is an *output*: polynomial
solutions exist only where beta = b K^3 for a root b of the termination
constraint, and each root defines a different potential.

``spectrum --verify`` checks each (n, l) family with one ``verify.confirm_solutions``
call, timed as one ``oracle`` stage, and ``wavefunction`` its one row; the
oracle sizes the Lagrange-Laguerre mesh to each state, and its gap relative to
max(1, |eps|), held to ``oracle.RTOL`` (1e-9), is ``oracle_gap``.
``spectrum`` and ``wavefunction`` hold each printed ``ode_residual`` to
``quantize.ODE_RTOL`` (1e-9).

Exit codes, all mapped in ``main``: 0 success, 2 config error (ConfigError, an
OverflowError for input a double cannot hold, an OSError for an unwritable --out, a
MemoryError for a size no memory can hold), 3 solver failure (any other ValueError or
RuntimeError), 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys as _sys
import time
import typing
from dataclasses import dataclass

import numpy as np

from .model import PhysicalSystem, turning_points
from .oracle import Confirmation
from .quantize import ODE_RTOL, QuasiExactSolution, certify, solve_family, wavefunction
from .verify import confirm_solutions, run_acceptance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
WAVEFUNCTION_RTOL = 1e-5  # wavefunction's bound on max |R_poly - R_oracle| / max |R_poly|


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    n: str | int = "0"  # INT or A..B
    l: str | int = "0"
    alpha: float = 0.0
    k: float = 1.0
    beta: float | None = None  # turning-points only
    epsilon: float | None = None  # turning-points only
    branch: int = 0  # wavefunction only
    verify: bool = False
    format: str = "csv"
    out: str | None = None

    def n_values(self) -> range:
        return _parse_range(self.n, "n")

    def l_values(self) -> range:
        return _parse_range(self.l, "l")

    def validate(self) -> None:
        for name, hint in _FIELD_TYPES.items():
            value = getattr(self, name)
            kinds = typing.get_args(hint) or (hint,)
            if float in kinds:
                kinds += (int,)
            # bool is an int subclass: accept it only where a bool is expected
            if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
                raise ConfigError(
                    f"{name} must be {RunConfig.__annotations__[name]} (got {value!r})"
                )
        try:
            PhysicalSystem(self.alpha, self.beta or 0.0, self.k, 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json (got {self.format})")
        # [1:], not len: len raises OverflowError past 2^63 values
        several = self.n_values()[1:] or self.l_values()[1:]
        if self.command in ("wavefunction", "turning-points") and several:
            raise ConfigError(f"{self.command} takes a single n and l, not a range")


_FIELD_TYPES = typing.get_type_hints(RunConfig)  # 0.2 ms a call: evaluated once


def _parse_range(spec: str, name: str) -> range:
    spec = str(spec)
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            vals = range(int(lo), int(hi) + 1)
        else:
            vals = range(int(spec), int(spec) + 1)
    except ValueError as exc:
        raise ConfigError(f"bad {name} range {spec!r}: expected INT or A..B") from exc
    if not vals or vals[0] < 0:
        raise ConfigError(f"{name} range {spec!r} is empty or negative")
    return vals


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(config: RunConfig, header: list[str], rows: list[list],
          diagnostics: dict) -> None:
    if config.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        results = [dict(zip(header, row)) for row in rows]
        keys = _config_keys(config.command)
        embedded = {key: v for key, v in vars(config).items() if key in keys}
        payload = {"config": embedded, "results": results, "diagnostics": diagnostics}
        text = json.dumps(payload) + "\n"
    if config.out:
        with open(config.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _confirm(sols: list[QuasiExactSolution], vector: bool = False) -> list[Confirmation]:
    """``confirm_solutions``; RuntimeError naming the first solution refuted."""
    checks = confirm_solutions(sols, vector)
    for sol, c in zip(sols, checks):
        if not c.passed:
            raise RuntimeError(
                f"oracle did not confirm epsilon={sol.epsilon} for {sol.label}: level "
                f"{c.level} reads {c.energy} on the mesh, relative gap {c.gap:.3e}"
                + ("" if c.nodes is None else f", {c.nodes} nodes"))
    return checks


def _check_certificate(sol: QuasiExactSolution, ode_residual: float) -> None:
    """RuntimeError naming the solution when its printed ode_residual exceeds ODE_RTOL."""
    if not ode_residual <= ODE_RTOL:
        raise RuntimeError(f"{sol.label}: ode_residual {ode_residual:.3e} exceeds {ODE_RTOL:g}")


@contextlib.contextmanager
def _stage(timings: dict, name: str):
    """Add the seconds the block takes to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


def cmd_spectrum(config: RunConfig) -> int:
    header = ["n", "l", "branch", "b", "beta", "epsilon", "ode_residual"]
    if config.verify:
        header.append("oracle_gap")
    rows: list[list] = []
    solutions: list[QuasiExactSolution] = []  # beside rows, to name the worst
    timings: dict = {}
    diagnostics: dict = {"families": 0, "solutions": 0, "timings_s": timings}
    for n in config.n_values():
        for l in config.l_values():
            with _stage(timings, "solve"):
                sols = solve_family(n, l, config.alpha, config.k)
            diagnostics["families"] += 1
            with _stage(timings, "certify"):
                certificates = certify(sols)
            family = [[n, l, branch, sol.b_root, sol.beta, sol.epsilon, ode_residual]
                      for branch, (sol, ode_residual) in enumerate(zip(sols, certificates))]
            diagnostics["solutions"] += len(family)
            if config.verify:
                with _stage(timings, "oracle"):
                    checks = _confirm(sols)
                for row, c in zip(family, checks):
                    row.append(c.gap)
            rows += family
            solutions += sols
    worst = int(np.argmax([row[6] for row in rows]))  # a NaN is the worst
    _check_certificate(solutions[worst], rows[worst][6])
    diagnostics["max_ode_residual"] = rows[worst][6]
    if config.verify:
        diagnostics["max_oracle_gap"] = max(row[7] for row in rows)
    _emit(config, header, rows, diagnostics)
    return EXIT_OK


def cmd_wavefunction(config: RunConfig) -> int:
    timings: dict = {}
    with _stage(timings, "solve"):
        sols = solve_family(config.n_values()[0], config.l_values()[0], config.alpha, config.k)
    if not (0 <= config.branch < len(sols)):
        raise ConfigError(f"branch {config.branch} out of range: {len(sols)} branches")
    sol = sols[config.branch]

    with _stage(timings, "oracle"):
        c = _confirm([sol], vector=True)[0]
    # both curves normalised in the mesh's own quadrature, sum w (R r)^2 = 1;
    # the oracle vector already is
    with _stage(timings, "curves"):
        r = c.grid.nodes()
        w = c.grid.weights()
        r_oracle = c.vector / r
        r_poly = wavefunction(sol, r)
        r_poly = r_poly / np.sqrt(np.sum(w * (r_poly * r) ** 2))
        if np.dot(r_poly, r_oracle) < 0:
            r_oracle = -r_oracle
        difference = r_poly - r_oracle
        # forward error of H's ill-conditioned float coefficients, which ode_residual misses
        max_rel_difference = float(np.max(np.abs(difference)) / np.max(np.abs(r_poly)))
    if not max_rel_difference <= WAVEFUNCTION_RTOL:
        raise RuntimeError(f"R_polynomial and R_oracle differ by {max_rel_difference:.3e} "
                           f"of R_polynomial's peak for {sol.label}")
    with _stage(timings, "certify"):
        ode_residual = certify([sol])[0]
    _check_certificate(sol, ode_residual)

    header = ["r", "R_polynomial", "R_oracle", "difference"]
    rows = np.column_stack([r, r_poly, r_oracle, difference]).tolist()
    diagnostics = {
        "epsilon": sol.epsilon, "beta": sol.beta, "b": sol.b_root,
        "oracle_index": c.level, "oracle_gap": c.gap, "node_count": c.nodes,
        "ode_residual": ode_residual, "max_rel_difference": max_rel_difference,
        "timings_s": timings,
    }
    _emit(config, header, rows, diagnostics)
    return EXIT_OK


def cmd_turning_points(config: RunConfig) -> int:
    if config.epsilon is None:
        raise ConfigError("turning-points requires --epsilon")
    beta = config.beta if config.beta is not None else 0.0
    l = config.l_values()[0]
    sys = PhysicalSystem(alpha=config.alpha, beta=beta, k=config.k, l=l)
    tp = turning_points(sys, config.epsilon)
    header = ["root_index", "re", "im", "is_real", "vieta_residual"]
    rows = [
        [i, z.real, z.imag, int(i < tp.real_count), tp.vieta_residuals[i]]
        for i, z in enumerate(tp.roots)
    ]
    diagnostics = {"real_count": tp.real_count,
                   "max_vieta_residual": max(tp.vieta_residuals)}
    _emit(config, header, rows, diagnostics)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    if config.out:
        with open(config.out, "w", newline="\n") as fh, contextlib.redirect_stdout(fh):
            results = run_acceptance()
    else:
        results = run_acceptance()
    if all(r.passed for r in results):
        return EXIT_OK
    print("verification failed", file=_sys.stderr)
    return EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biheun",
        description="Quasi-exact radial bound states of U = -alpha/r + beta*r + k*r^2 "
        "via bi-confluent Heun series termination (scaled units).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--out", help="output path (default: stdout)")

    def system(p):
        common(p)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--l", help="orbital quantum number, INT or A..B")
        p.add_argument("--alpha", type=float, help="Coulomb strength (scaled)")
        p.add_argument("--k", type=float, help="harmonic coefficient, > 0")

    def family(p):
        """The flags of the commands that solve (n, l) families and call the oracle."""
        system(p)
        p.add_argument("--n", help="polynomial degree, INT or A..B")

    p = sub.add_parser("spectrum", help="quasi-exact energies per (n, l) family")
    family(p)
    p.add_argument("--verify", action="store_true",
                   help="confirm each energy against the Lagrange-Laguerre mesh oracle")

    p = sub.add_parser("wavefunction", help="polynomial vs oracle wavefunction")
    family(p)
    p.add_argument("--branch", type=int, help="which b root (ascending order)")

    p = sub.add_parser("turning-points", help="quartic roots and Vieta residuals")
    system(p)
    p.add_argument("--beta", type=float, help="explicit linear coefficient")
    p.add_argument("--epsilon", type=float, help="energy at which to evaluate")

    p = sub.add_parser("verify", help="run the full acceptance suite")
    common(p)
    return parser


@functools.cache
def _config_keys(command: str) -> frozenset[str]:
    """``command`` and the RunConfig fields its flags set: the keys its JSON
    config may hold and its JSON output embeds."""
    return frozenset(vars(build_parser().parse_args([command]))) - {"config"}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        loaded.pop("command", None)
        loaded.pop("config", None)
        unknown = set(loaded) - _config_keys(args.command)
        if unknown:
            raise ConfigError(f"keys that are not flags of {args.command}: {sorted(unknown)}")
        values.update(loaded)
    for key in RunConfig.__dataclass_fields__:
        if key == "command":
            continue
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            values[key] = flag
    cfg = RunConfig(command=args.command, **values)
    cfg.validate()
    return cfg


COMMANDS = {
    "spectrum": cmd_spectrum,
    "wavefunction": cmd_wavefunction,
    "turning-points": cmd_turning_points,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return COMMANDS[config.command](config)
    except (ConfigError, OverflowError, OSError, MemoryError) as exc:
        # input out of range, an unwritable --out, or an --n no memory can hold
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
