"""Seeded workloads: one ``biheun.cli.main(argv)`` call per op, every output checked.

Each workload is a pool of rounds, run in turn. A round of a family workload
holds the same number of ops for every degree n, which sets most of an op's
cost: one per n, with l cycling through 0..3 from round to round, or, for
``spectrum-verify``, whose few slow ops make the l mix matter, one per (n, l)
pair. alpha ~ U[0, 3] and k log-uniform on [0.25, 4] are drawn per op. The
acceptance round is one op, a full ``verify`` pass: its eight criteria take
from 0.01 s to about 50 s, so a median over them would turn on which two
short criteria sit in the middle. The seed fixes the rounds and the order
within each.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import reference, speed

# Largest accepted |x - x_ref| / max(1, |x_ref|) for b and epsilon. In
# biheun 0.1.0 the worst family (n = 32) reads about 4e-10; a shift of b by
# 1e-8 still fails every family with |b| < 5.
B_TOL = 2e-9

# Largest accepted max|difference| / max|R_polynomial| between the polynomial
# and the finite-difference wavefunction (second order, 6,000 points).
WF_TOL = 1e-3

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"

ROUNDS_IN_POOL = {"spectrum": 2, "spectrum-verify": 1, "wavefunction": 4}
L_PER_ROUND = {"spectrum": 1, "spectrum-verify": 4, "wavefunction": 1}
N_MAX = {"spectrum": 32, "spectrum-verify": 12, "wavefunction": 12}


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    n: int = 0
    l: int = 0
    alpha: float = 0.0
    k: float = 1.0
    branch: int = 0


@dataclass
class Outcome:
    # ok | refused (non-zero exit) | inaccurate (oracle wavefunction off by
    # more than WF_TOL) | wrong (a b, epsilon or root count off, or a failed
    # acceptance criterion) | error (exception)
    status: str
    detail: str = ""
    b_err: float = 0.0
    wf_err: float = 0.0


def make_rounds(workload: str, seed: int) -> list[list[Op]]:
    rng = np.random.default_rng(seed)
    if workload == "acceptance":
        return [[Op(("verify",))]]
    rounds = []
    offset = int(rng.integers(4))
    per_n = L_PER_ROUND[workload]
    for r in range(ROUNDS_IN_POOL[workload]):
        ops = []
        for n, j in ((n, j) for n in range(N_MAX[workload] + 1) for j in range(per_n)):
            l = (n + r * per_n + j + offset) % 4
            alpha = float(rng.uniform(0.0, 3.0))
            k = float(math.exp(rng.uniform(math.log(0.25), math.log(4.0))))
            system = ("--n", str(n), "--l", str(l), "--alpha", repr(alpha), "--k", repr(k))
            if workload == "wavefunction":
                branch = int(rng.integers(n + 1))
                args = ("wavefunction", *system, "--branch", str(branch), "--format", "json")
            else:
                branch = 0
                args = ("spectrum", *system) + (("--verify",) if workload == "spectrum-verify" else ())
            ops.append(Op(args, n, l, alpha, k, branch))
        rounds.append(ops)
    return rounds


def round_order(rounds: list[list[Op]], index: int, seed: int) -> list[Op]:
    """Round ``index`` of the run: pool round ``index mod len(pool)``, seeded order."""
    ops = rounds[index % len(rounds)]
    perm = np.random.default_rng([seed, 7, index]).permutation(len(ops))
    return [ops[i] for i in perm]


def build_references(rounds: list[list[Op]]) -> dict:
    """(n, l, alpha, k) -> ([b_ref...], [eps_ref...]) as floats, ascending b."""
    refs = {}
    for op in (op for ops in rounds for op in ops if op.args[0] != "verify"):
        key = (op.n, op.l, op.alpha, op.k)
        if key not in refs:
            roots = reference.b_roots(op.n, op.l, op.alpha, op.k)
            refs[key] = ([float(b) for b in roots],
                         [float(reference.energy(op.n, op.l, op.k, b)) for b in roots])
    return refs


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(1.0, abs(ref))


def _check_energies(op: Op, refs: dict, pairs: list[tuple[int, float, float]]) -> Outcome:
    """pairs: (branch, b, epsilon) as printed by the program."""
    b_ref, eps_ref = refs[(op.n, op.l, op.alpha, op.k)]
    b_err = 0.0
    for branch, b, eps in pairs:
        b_err = max(b_err, _rel(b, b_ref[branch]))
        if not (_rel(b, b_ref[branch]) <= B_TOL and _rel(eps, eps_ref[branch]) <= B_TOL):
            return Outcome("wrong", f"branch {branch}: b={b!r} eps={eps!r}, "
                           f"reference b={b_ref[branch]!r} eps={eps_ref[branch]!r}", b_err)
    return Outcome("ok", b_err=b_err)


def check(op: Op, code: int, text: str, refs: dict) -> Outcome:
    """Judge one op from its exit code and the text it wrote to --out."""
    if op.args[0] == "verify":
        return Outcome("ok") if code == 0 else Outcome("wrong", f"exit {code}")
    if code != 0:
        return Outcome("refused", f"exit {code}")
    try:
        return _check_output(op, text, refs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome("wrong", f"unreadable output: {type(exc).__name__}: {exc}")


def _check_output(op: Op, text: str, refs: dict) -> Outcome:
    if op.args[0] == "spectrum":
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != op.n + 1:
            return Outcome("wrong", f"{len(rows)} roots, expected {op.n + 1}")
        rows.sort(key=lambda row: float(row["b"]))
        return _check_energies(op, refs, [(i, float(row["b"]), float(row["epsilon"]))
                                          for i, row in enumerate(rows)])
    payload = json.loads(text)
    diag = payload["diagnostics"]
    out = _check_energies(op, refs, [(op.branch, float(diag["b"]), float(diag["epsilon"]))])
    poly = np.array([row["R_polynomial"] for row in payload["results"]])
    diff = np.array([row["difference"] for row in payload["results"]])
    out.wf_err = float(np.max(np.abs(diff)) / np.max(np.abs(poly)))
    if out.status == "ok" and not out.wf_err <= WF_TOL:
        return Outcome("inaccurate", f"wavefunction difference {out.wf_err:.2e}",
                       out.b_err, out.wf_err)
    return out


class Runner:
    """Runs the rounds of one workload, closed loop, and records each op."""

    def __init__(self, workload: str, seed: int, tracer=None):
        import biheun.cli

        self.cli = biheun.cli
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.scaled = workload in speed.SCALED_WORKLOADS
        self.rounds = make_rounds(workload, seed)
        self.refs = build_references(self.rounds)
        OUT_DIR.mkdir(exist_ok=True)
        self.out = OUT_DIR / f"op-{os.getpid()}.out"
        self.records: list[dict] = []
        self.probes: list[float] = []

    def call(self, op) -> tuple[int | None, float, str]:
        """Time one cli.main call: (exit code or None on a crash, seconds, console text)."""
        argv = [*op.args, "--out", str(self.out)]
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        err = io.StringIO()
        with contextlib.redirect_stdout(err), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed op; keep measuring
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
        return code, dt, err.getvalue()

    def run(self, seconds: float) -> None:
        """Run whole rounds until the ops' measured time reaches ``seconds``.

        Times are scaled to reference speed for workloads in
        ``speed.SCALED_WORKLOADS`` and are plain wall time otherwise."""
        start = time.perf_counter()
        index = 0
        measured = 0.0
        while index == 0 or measured < seconds:
            for op in round_order(self.rounds, index, self.seed):
                if self.out.exists():
                    self.out.unlink()
                if self.scaled:
                    self.probes.append(speed.probe())
                code, dt, err = self.call(op)
                t = speed.scale(dt, self.probes) if self.scaled else dt
                measured += t
                text = self.out.read_text() if self.out.exists() else ""
                if code is None:
                    outcome = Outcome("error")
                else:
                    outcome = check(op, code, text, self.refs)
                self.records.append({"op": op, "round": index, "status": outcome.status,
                                     "s": dt, "scaled_s": t,
                                     "detail": f"{outcome.detail} {err.strip()[-300:]}",
                                     "b_err": outcome.b_err, "wf_err": outcome.wf_err,
                                     "bytes": len(text.encode())})
            index += 1
        self.rounds_run = index
        self.wall_s = time.perf_counter() - start
        if self.out.exists():
            self.out.unlink()
