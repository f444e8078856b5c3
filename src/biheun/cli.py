"""Command-line front end: spectra, wavefunctions, turning points, verification.

Works entirely in scaled units: the radial equation is
f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta*r - k*r^2] f = 0, i.e. the
2M/hbar^2 factors are already absorbed into (alpha, beta, k) and energies.

For ``spectrum`` the linear coefficient beta is an *output*: polynomial
solutions exist only where beta = b K^3 for a root b of the termination
constraint, and each root defines a different potential.

``spectrum --verify`` and ``wavefunction`` check each row with
``oracle.confirm``, which sizes the Lagrange-Laguerre mesh to the state and
requires the mesh energy within ``oracle.RTOL`` (1e-5) of max(1, |eps|).

Exit codes: 0 success, 2 config error (also input whose alpha/K or turning-point
quartic overflows a double), 3 solver failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys as _sys
import typing
from dataclasses import asdict, dataclass

import numpy as np

from .model import PhysicalSystem, turning_points
from .oracle import Confirmation, confirm, node_count
from .quantize import QuasiExactSolution, _log_envelope_and_h, solve_family
from .verify import run_acceptance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    pass


class SolverError(RuntimeError):
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

    def n_values(self) -> list[int]:
        return _parse_range(self.n, "n")

    def l_values(self) -> list[int]:
        return _parse_range(self.l, "l")

    def validate(self) -> None:
        for name, hint in typing.get_type_hints(RunConfig).items():
            value = getattr(self, name)
            kinds = typing.get_args(hint) or (hint,)
            if float in kinds:
                kinds += (int,)
            # bool is an int subclass: accept it only where a bool is expected
            if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
                raise ConfigError(
                    f"{name} must be {RunConfig.__annotations__[name]} (got {value!r})"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite (got {value})")
        if self.k <= 0:
            raise ConfigError(f"k must be positive (got {self.k})")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be non-negative (got {self.alpha})")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json (got {self.format})")
        single = len(self.n_values()) == len(self.l_values()) == 1
        if self.command in ("wavefunction", "turning-points") and not single:
            raise ConfigError(f"{self.command} takes a single n and l, not a range")


def _parse_range(spec: str, name: str) -> list[int]:
    spec = str(spec)
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            vals = list(range(int(lo), int(hi) + 1))
        else:
            vals = [int(spec)]
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
        embedded = {key: v for key, v in asdict(config).items() if key in keys}
        payload = {"config": embedded, "results": results, "diagnostics": diagnostics}
        text = json.dumps(payload) + "\n"
    if config.out:
        with open(config.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _confirm(sol: QuasiExactSolution, branch: int, vector: bool = False) -> Confirmation:
    """Oracle check of one solution at its Sturm level; SolverError if refuted."""
    c = confirm(sol.system(), sol.epsilon, sol.level, vector=vector)
    if not c.passed:
        raise SolverError(
            f"oracle did not confirm epsilon={sol.epsilon} for (n={sol.n}, "
            f"l={sol.l}, branch={branch}): level {c.level} reads "
            f"{c.energy} on the mesh, gap {c.gap:.3e}"
        )
    return c


def cmd_spectrum(config: RunConfig) -> None:
    header = ["n", "l", "branch", "b", "beta", "epsilon", "ode_residual"]
    if config.verify:
        header.append("oracle_gap")
    rows: list[list] = []
    diagnostics: dict = {"families": 0, "solutions": 0}
    for n in config.n_values():
        for l in config.l_values():
            sols = solve_family(n, l, config.alpha, config.k)
            diagnostics["families"] += 1
            for branch, sol in enumerate(sols):
                diagnostics["solutions"] += 1
                row = [n, l, branch, sol.b_root, sol.beta, sol.epsilon, sol.ode_residual]
                if config.verify:
                    row.append(_confirm(sol, branch).gap)
                rows.append(row)
    _emit(config, header, rows, diagnostics)


def cmd_wavefunction(config: RunConfig) -> None:
    n = config.n_values()[0]
    l = config.l_values()[0]
    sols = solve_family(n, l, config.alpha, config.k)
    if not (0 <= config.branch < len(sols)):
        raise ConfigError(f"branch {config.branch} out of range: {len(sols)} branches")
    sol = sols[config.branch]

    c = _confirm(sol, config.branch, vector=True)
    nodes = node_count(c.vector)
    if nodes != c.level:
        raise SolverError(
            f"oracle eigenvector at level {c.level} has {nodes} nodes "
            f"for (n={n}, l={l}, branch={config.branch})"
        )
    # both curves normalised in the mesh's own quadrature, sum w (R r)^2 = 1;
    # the oracle vector already is. The envelope's log-maximum is taken out before
    # the exp, which overflows from l ~ 330 and underflows at every node at alpha =
    # 1e9, l = 60, and R r is scaled to max 1 before it is squared
    r = c.grid.nodes()
    w = c.grid.weights()
    r_oracle = c.vector / r
    log_envelope, h = _log_envelope_and_h(sol, r)
    r_poly = np.exp(log_envelope - np.max(log_envelope)) * h
    peak = np.max(np.abs(r_poly * r))
    if not 0 < peak < np.inf:
        raise SolverError(f"R_polynomial has max |R r| {peak} on the mesh for "
                          f"(n={n}, l={l}, branch={config.branch})")
    r_poly = r_poly / peak
    r_poly = r_poly / np.sqrt(np.sum(w * (r_poly * r) ** 2))
    if np.dot(r_poly, r_oracle) < 0:
        r_oracle = -r_oracle

    header = ["r", "R_polynomial", "R_oracle", "difference"]
    rows = [[float(ri), float(p), float(o), float(p - o)]
            for ri, p, o in zip(r, r_poly, r_oracle)]
    diagnostics = {
        "epsilon": sol.epsilon, "beta": sol.beta, "b": sol.b_root,
        "oracle_index": c.level, "oracle_gap": c.gap, "node_count": nodes,
    }
    _emit(config, header, rows, diagnostics)


def cmd_turning_points(config: RunConfig) -> None:
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


def cmd_verify(config: RunConfig) -> None:
    if config.out:
        with open(config.out, "w", newline="\n") as fh, contextlib.redirect_stdout(fh):
            results = run_acceptance()
    else:
        results = run_acceptance()
    if not all(r.passed for r in results):
        raise VerificationFailure()


class VerificationFailure(Exception):
    pass


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    try:
        COMMANDS[config.command](config)
    except (ConfigError, OverflowError) as exc:  # input that overflows a double
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except VerificationFailure:
        print("verification failed", file=_sys.stderr)
        return EXIT_VERIFY
    except (SolverError, ValueError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
