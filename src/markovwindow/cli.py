"""Command-line front door.

Subcommands: spectrum | evolve | complexity | window | time | simulate |
zoo-list.  Chains are given as inline JSON or a path to a JSON file;
distributions as "stationary", "point:<i>", "extreme:[2]|[d]:<alpha|auto>:<+|->",
or an explicit JSON vector.  Output is CSV (default) or JSON, to stdout or
--output.

Exit codes: 0 success, 1 usage error, 2 domain error (non-reversible,
infeasible, ...), 3 enumeration budget exceeded.  MW_THREADS caps simulate's
parallelism over trial blocks (0 = auto, unset = serial).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .chain import Distribution, TransitionMatrix, evolve
from .complexity import (
    TestingInstance,
    complexity_report,
    extreme_pairs,
    pairwise_epsilon,
    statistical_time,
    statistical_window,
)
from .errors import (
    BudgetExceeded,
    InvalidParameter,
    MarkovWindowError,
)
from .montecarlo import estimate_error
from .spectral import spectral_decomposition
from .zoo import ZOO_FAMILIES, chain_from_spec

USAGE_EXIT = 1
DOMAIN_EXIT = 2
BUDGET_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fmt(x) -> str:
    """Round-trip-safe scalar formatting for CSV cells."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


def _jsonable(obj):
    """Make a structure JSON-serializable; infinities become "inf" strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    return obj


def _emit(args, csv_lines, json_obj) -> None:
    if args.format == "json":
        text = json.dumps(_jsonable(json_obj), indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(csv_lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_chain(spec: str) -> tuple[TransitionMatrix, object]:
    spec = spec.strip()
    if not spec.startswith("{"):
        try:
            with open(spec) as fh:
                spec = fh.read().strip()
        except OSError as exc:
            raise _UsageError(f"cannot read chain spec file: {exc}") from exc
    parsed = json.loads(spec) if spec.startswith("{") else None
    if parsed is None:
        raise _UsageError("chain spec must be a JSON object or a path to one")
    return chain_from_spec(parsed), parsed


class _DistContext:
    """Resolves distribution specs against a chain, caching the spectral work."""

    def __init__(self, P: TransitionMatrix, epsilon_flag: str | None):
        self.P = P
        self.epsilon_flag = epsilon_flag
        self._decomposition = None
        self._extremes = None
        self.resolved_alpha = None

    @property
    def decomposition(self):
        if self._decomposition is None:
            self._decomposition = spectral_decomposition(self.P)
        return self._decomposition

    def extremes(self):
        if self._extremes is None:
            if self.epsilon_flag is None or self.epsilon_flag == "auto":
                raise _UsageError(
                    "extreme:...:auto needs a numeric --epsilon as the target bound"
                )
            self._extremes = extreme_pairs(self.P, float(self.epsilon_flag))
            self.resolved_alpha = self._extremes.alpha
        return self._extremes

    def parse(self, spec: str) -> Distribution:
        spec = spec.strip()
        if spec == "stationary":
            return self.decomposition.stationary
        if spec.startswith("point:"):
            return Distribution.point(self.P.d, int(spec.split(":", 1)[1]))
        if spec.startswith("extreme:"):
            parts = spec.split(":")
            if len(parts) != 4 or parts[1] not in ("[2]", "[d]") or parts[3] not in ("+", "-"):
                raise _UsageError(
                    f"bad extreme spec {spec!r}; expected extreme:[2]|[d]:<alpha|auto>:<+|->"
                )
            sign = 1.0 if parts[3] == "+" else -1.0
            S = self.decomposition
            u = S.left_by_abs_rank(2 if parts[1] == "[2]" else S.d)
            if parts[2] == "auto":
                alpha = self.extremes().alpha
            else:
                alpha = float(parts[2])
                self.resolved_alpha = alpha
            return Distribution(S.stationary.mass + sign * alpha * u)
        if spec.startswith("["):
            return Distribution(np.asarray(json.loads(spec), dtype=float))
        raise _UsageError(f"unrecognized distribution spec {spec!r}")


def _parse_int_list(text: str, label: str) -> list[int]:
    """Accept "5", "0..20", or "0,2,5"."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("empty range")
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(part) for part in text.split(",")]
        return [int(text)]
    except ValueError as exc:
        raise _UsageError(f"bad {label} spec {text!r}: {exc}") from exc


def _epsilon_value(flag: str | None, inst: TestingInstance) -> float:
    if flag is None or flag == "auto":
        return pairwise_epsilon(inst.mu, inst.mu_prime, inst.stationary)
    return float(flag)


def _note_alpha(args, ctx: _DistContext) -> None:
    if ctx.resolved_alpha is not None and args.format == "csv":
        print(f"resolved alpha = {_fmt(ctx.resolved_alpha)}", file=sys.stderr)


def _cmd_spectrum(args) -> None:
    P, _ = _load_chain(args.chain)
    S = spectral_decomposition(P)
    rank_of = np.empty(S.d, dtype=int)
    rank_of[S.abs_order] = np.arange(1, S.d + 1)
    lines = ["index,eigenvalue,abs_rank"]
    rows = []
    preview = min(S.d, 8)
    for i in range(S.d):
        lines.append(f"{i + 1},{_fmt(S.eigenvalues[i])},{rank_of[i]}")
        rows.append(
            {
                "index": i + 1,
                "eigenvalue": float(S.eigenvalues[i]),
                "abs_rank": int(rank_of[i]),
                "eigenvector_preview": S.left_eigenvectors[i, :preview],
            }
        )
    _emit(args, lines, {"d": S.d, "stationary": S.stationary.mass, "rows": rows})


def _cmd_evolve(args) -> None:
    P, _ = _load_chain(args.chain)
    ctx = _DistContext(P, args.epsilon)
    mu = ctx.parse(args.mu)
    lines = ["t,state,mass"]
    rows = []
    current = mu
    last_t = 0
    for t in sorted(set(_parse_int_list(args.t, "--t"))):
        current = evolve(current, P, t - last_t)
        last_t = t
        for x in range(P.d):
            lines.append(f"{t},{x},{_fmt(current.mass[x])}")
        rows.append({"t": t, "mass": current.mass})
    _note_alpha(args, ctx)
    _emit(args, lines, {"rows": rows})


def _cmd_complexity(args) -> None:
    P, _ = _load_chain(args.chain)
    ctx = _DistContext(P, args.epsilon)
    mu, mu_prime = ctx.parse(args.mu), ctx.parse(args.mu_prime)
    lines = ["t,delta_t,n_upper,n_lower,n_star_scale"]
    reports = []
    for t in _parse_int_list(args.t, "--t"):
        inst = TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=t)
        eps = _epsilon_value(args.epsilon, inst)
        rep = complexity_report(inst, eps, args.delta, eta=args.eta)
        lines.append(
            f"{t},{_fmt(rep.delta_t)},{_fmt(rep.n_upper)},{_fmt(rep.n_lower)},{_fmt(rep.n_star_scale)}"
        )
        d = rep.to_json_dict()
        if ctx.resolved_alpha is not None:
            d["alpha"] = ctx.resolved_alpha
        reports.append(d)
    _note_alpha(args, ctx)
    _emit(args, lines, reports)


def _cmd_window(args) -> None:
    P, _ = _load_chain(args.chain)
    ctx = _DistContext(P, args.epsilon)
    explicit = [args.mu, args.mu_prime, args.gamma, args.gamma_prime]
    meta = {}
    if any(explicit):
        if not all(explicit):
            raise _UsageError("explicit window pairs need all of --mu/--mu-prime/--gamma/--gamma-prime")
        pair_a = (ctx.parse(args.mu), ctx.parse(args.mu_prime))
        pair_b = (ctx.parse(args.gamma), ctx.parse(args.gamma_prime))
    else:
        eps = 0.2 if args.epsilon in (None, "auto") else float(args.epsilon)
        ext = extreme_pairs(P, eps)
        ctx.resolved_alpha = ext.alpha
        pair_a, pair_b = ext.pair_a, ext.pair_b
        meta = {
            "alpha": ext.alpha,
            "epsilon_target": eps,
            "lambda_2": ext.lambda_2,
            "lambda_d": ext.lambda_d,
        }
    lines = ["t,window"]
    rows = []
    for t in _parse_int_list(args.t, "--t"):
        w = statistical_window(P, pair_a, pair_b, t)
        lines.append(f"{t},{_fmt(w)}")
        rows.append({"t": t, "window": w})
    _note_alpha(args, ctx)
    _emit(args, lines, dict(meta, rows=rows))


def _cmd_time(args) -> None:
    P, _ = _load_chain(args.chain)
    ctx = _DistContext(P, args.epsilon)
    mu, mu_prime = ctx.parse(args.mu), ctx.parse(args.mu_prime)
    if args.threshold is not None:
        threshold = args.threshold
    else:
        # Impossibility-scale default: the lower-bound constant 8 eps delta^2.
        inst0 = TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=0)
        eps = _epsilon_value(args.epsilon, inst0)
        if not eps > 0.0:
            raise _UsageError("measured epsilon is 0; pass --threshold explicitly")
        threshold = 8.0 * eps * args.delta**2
    lines = ["n,t_star"]
    rows = []
    for n in _parse_int_list(args.n, "--n"):
        t_star = statistical_time(P, mu, mu_prime, n, threshold)
        lines.append(f"{n},{_fmt(t_star)}")
        rows.append({"n": n, "t_star": t_star})
    _note_alpha(args, ctx)
    _emit(args, lines, {"threshold": threshold, "rows": rows})


def _workers_from_env() -> int:
    raw = os.environ.get("MW_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise _UsageError(f"MW_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise _UsageError("MW_THREADS must be >= 0")
    if value == 0:
        return os.cpu_count() or 1
    return value


def _cmd_simulate(args) -> None:
    P, _ = _load_chain(args.chain)
    ctx = _DistContext(P, args.epsilon)
    mu, mu_prime = ctx.parse(args.mu), ctx.parse(args.mu_prime)
    ts = _parse_int_list(args.t, "--t")
    if len(ts) != 1:
        raise _UsageError("simulate takes a single --t")
    inst = TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=ts[0])
    est = estimate_error(inst, args.n, args.trials, args.seed, workers=_workers_from_env())
    d = est.to_json_dict()
    header = "err_mu,err_mu_prime,err_max,trials,ci_halfwidth,n,t,seed"
    row = ",".join(_fmt(d[k]) for k in header.split(","))
    _note_alpha(args, ctx)
    _emit(args, [header, row], d)


def _cmd_zoo_list(args) -> None:
    lines = ["family,parameters"]
    for name in sorted(ZOO_FAMILIES):
        lines.append(f"{name},{' '.join(ZOO_FAMILIES[name])}")
    _emit(args, lines, {name: ZOO_FAMILIES[name] for name in sorted(ZOO_FAMILIES)})


def _build_parser() -> _Parser:
    parser = _Parser(prog="markovwindow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, chain=True):
        if chain:
            p.add_argument("--chain", required=True, help="inline JSON chain spec or file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--epsilon", default=None,
                       help="bounded-likelihood-ratio parameter or 'auto' (measured)")
        p.add_argument("--delta", type=float, default=0.1, help="error probability target")
        p.add_argument("--eta", type=float, default=0.75,
                       help="centering weight for the hypothesis-free bound")

    p = sub.add_parser("spectrum", help="eigenvalues and |eigenvalue| ranks")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("evolve", help="push a distribution through t steps")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("complexity", help="decay and sample thresholds per t")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--mu-prime", required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("window", help="normalized complexity ratio of two pairs")
    common(p)
    p.add_argument("--t", required=True)
    p.add_argument("--mu")
    p.add_argument("--mu-prime")
    p.add_argument("--gamma")
    p.add_argument("--gamma-prime")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("time", help="crossing time t* per sample size")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--mu-prime", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=_cmd_time)

    p = sub.add_parser("simulate", help="Monte Carlo error of the LR test")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--mu-prime", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("zoo-list", help="list chain families and parameters")
    common(p, chain=False)
    p.set_defaults(func=_cmd_zoo_list)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    except MarkovWindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
