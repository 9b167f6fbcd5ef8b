"""Command-line front door.

Subcommands: spectrum | evolve | complexity | window | time | simulate |
zoo-list.  Chains are given as inline JSON or a path to a JSON file;
distributions as "stationary", "point:<i>", "extreme:[2]|[d]:<alpha|auto>:<+|->",
or an explicit JSON vector.  Output is CSV (default) or JSON, to stdout or
--output.

Exit codes: 0 success, 1 usage error, 2 domain error (non-reversible,
infeasible, ...), 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import chain
from .chain import Distribution, TransitionMatrix, _check_step, evolve
from .errors import BudgetExceeded, Infeasible, InvalidParameter, MarkovWindowError
from .zoo import ZOO_FAMILIES, _numbers, chain_from_spec

# Every command needs chain, errors and zoo; each handler imports the rest of
# the pipeline where it runs, so a process loads only the layers its command uses.

USAGE_EXIT = 1
DOMAIN_EXIT = 2
BUDGET_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise InvalidParameter(message)


def _fmt(x) -> str:
    """Round-trip-safe scalar formatting for CSV cells; strings pass as they are."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return format(float(x), ".17g")  # also "inf", "-inf" and "nan"


class _Rows(dict):
    """Equal-length columns by field name, written to JSON as the list of
    their rows: row i holds entry i of every column."""


def _json(obj, level: int = 0) -> str:
    """The JSON text of obj, nested level deep: json.dumps(obj, indent=2,
    sort_keys=True) at level 0, after numpy arrays become lists, numpy
    scalars numbers, and non-finite floats the strings "inf", "-inf" and
    "nan".  A _Rows is written a column at a time through one template."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return float.__repr__(x) if math.isfinite(x) else f'"{_fmt(x)}"'
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist(), level)
    if isinstance(obj, _Rows):
        keys = sorted(obj)
        return _block("[]", _filled(_labels(keys), [obj[k] for k in keys], level + 1), level)
    if isinstance(obj, dict):
        keys = sorted(obj)
        items = [label + _json(obj[k], level + 1) for label, k in zip(_labels(keys), keys)]
        return _block("{}", items, level)
    if isinstance(obj, (list, tuple)):
        return _block("[]", _column(obj, level + 1), level)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _labels(keys) -> list[str]:
    return [encode_basestring_ascii(k) + ": " for k in keys]


def _block(brackets: str, items: list[str], level: int) -> str:
    """items between brackets, one per line, indented one level deeper."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _filled(labels: list[str], columns, level: int) -> list[str]:
    """The JSON texts, at one level, of the objects whose entry j is
    labels[j] then one value of columns[j]."""
    template = _block("{}", [label.replace("%", "%%") + "%s" for label in labels], level)
    return [template % row for row in zip(*(_column(c, level + 1) for c in columns))]


def _column(values, level: int) -> list[str]:
    """_json of every value, at one level, by one formatter where the
    values allow: all finite floats, all ints, or one shared container."""
    kinds = set(map(type, values))
    if kinds == {float}:
        if all(map(math.isfinite, values)):
            return list(map(float.__repr__, values))
    elif kinds == {int}:
        return list(map(int.__repr__, values))
    elif kinds == {dict} or kinds == {list}:
        if len(set(map(id, values))) == 1:
            return [_json(values[0], level)] * len(values)
    return [_json(v, level) for v in values]


def _cells(values) -> map:
    """_fmt of every value, by one formatter for the whole column."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return map(format, values, itertools.repeat(".17g"))  # as _fmt, also for inf, -inf and nan
    return map(str if kinds == {int} else _fmt, values)


def _emit(args, header: str, columns: dict[str, list], doc, alpha: float | None = None) -> None:
    """Write the header's columns as CSV, or doc (which holds the same
    values) as JSON; a CSV run echoes the resolved alpha on stderr."""
    if args.format == "json":
        text = _json(doc) + "\n"
    else:
        if alpha is not None:
            print(f"resolved alpha = {_fmt(alpha)}", file=sys.stderr)
        cells = [_cells(columns[c]) for c in header.split(",")]
        text = "\n".join([header, *map(",".join, zip(*cells))]) + "\n"
    if args.output:
        try:
            fh = open(args.output, "w")
        except OSError as exc:
            raise InvalidParameter(f"cannot write output file: {exc}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_chain(spec: str) -> TransitionMatrix:
    spec = spec.strip()
    if not spec.startswith("{"):
        try:
            with open(spec) as fh:
                spec = fh.read().strip()
        except OSError as exc:
            raise InvalidParameter(f"cannot read chain spec file: {exc}") from exc
    if not spec.startswith("{"):
        raise InvalidParameter("chain spec must be a JSON object or a path to one")
    return chain_from_spec(json.loads(spec))


def _distributions(P: TransitionMatrix, epsilon, *specs: str) -> tuple[list[Distribution], float | None]:
    """The distributions named by specs, and the alpha to report (None without
    an extreme spec): the alpha of extreme_pairs(P, epsilon) when any spec
    says "auto", else the last explicit alpha.  Every spec is parsed before
    any is resolved, so a malformed one exits 1 before any verdict or eigh."""
    parsed, alpha = [], None  # a Distribution, "stationary", or an extreme spec's parts
    for spec in map(str.strip, specs):
        if spec == "stationary":
            parsed.append(spec)
        elif spec.startswith("point:"):
            parsed.append(Distribution.point(P.d, int(spec.split(":", 1)[1])))
        elif spec.startswith("extreme:"):
            parts = spec.split(":")
            if len(parts) != 4 or parts[1] not in ("[2]", "[d]") or parts[3] not in ("+", "-"):
                raise InvalidParameter(f"bad extreme spec {spec!r}; expected extreme:[2]|[d]:<alpha|auto>:<+|->")
            if parts[2] != "auto":
                if not 0.0 <= (alpha := float(parts[2])) < math.inf:  # also refuses nan
                    raise InvalidParameter(f"bad extreme spec {spec!r}: alpha must be a finite number >= 0")
            elif epsilon is None:
                raise InvalidParameter("extreme:...:auto needs a numeric --epsilon as the target bound")
            else:
                _extreme_target(epsilon)
            parsed.append(parts)
        elif spec.startswith("["):
            try:
                mass = _numbers(json.loads(spec))
            except (TypeError, ValueError) as exc:  # e.g. [{}], [true] or [1
                raise InvalidParameter(f"bad distribution vector {spec!r}: {exc}") from exc
            if mass.size != P.d:
                raise InvalidParameter(f"distribution vector {spec!r} has {mass.size} entries, the chain {P.d} states")
            parsed.append(Distribution(mass))
        else:
            raise InvalidParameter(f"unrecognized distribution spec {spec!r}")
    dists, extremes, pi = [], None, None
    for item in parsed:
        if item == "stationary":
            item = pi = pi or chain.stationary_distribution(P)  # once per command
        elif isinstance(item, list):  # extreme:<rank>:<alpha|auto>:<sign>
            from .complexity import extreme_pairs
            from .spectral import spectral_decomposition
            if item[2] == "auto":
                extremes = extremes or extreme_pairs(P, epsilon)
                item[2] = extremes.alpha
            S = spectral_decomposition(P)
            u = S.left_by_abs_rank(2 if item[1] == "[2]" else S.d)
            item = Distribution(S.stationary.mass + (1.0 if item[3] == "+" else -1.0) * float(item[2]) * u)
        dists.append(item)
    return dists, alpha if extremes is None else extremes.alpha


def _extreme_target(epsilon: float) -> float:
    """--epsilon as the target bound of extreme_pairs, named where it lies outside [0, 1)."""
    if epsilon < 0.0:
        raise InvalidParameter(f"--epsilon must be nonnegative for extreme pairs, got {epsilon!r}")
    if epsilon >= 1.0:
        raise Infeasible(f"--epsilon must be < 1 for extreme pairs, got {epsilon!r}")
    return epsilon


def _parse_int_list(text: str, label: str, check) -> list[int]:
    """Accept "5", "0..20", or "0,2,5"; check(values) raises on a value out of range, before any solve."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("empty range")
            values = list(range(lo, hi + 1))
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidParameter(f"bad {label} spec {text!r}: {exc}") from exc
    check(values)
    return values


def _finite_flag(text: str) -> float:
    """--threshold: a finite float."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def _epsilon_flag(text: str) -> float | None:
    """--epsilon: a finite float, or None (measured, as when absent) for "auto"."""
    return None if text == "auto" else _finite_flag(text)


def _cmd_spectrum(args) -> None:
    from .spectral import spectral_decomposition
    S = spectral_decomposition(_load_chain(args.chain))
    rank_of = np.empty(S.d, dtype=int)
    rank_of[S.abs_order] = np.arange(1, S.d + 1)
    rows = _Rows(index=list(range(1, S.d + 1)), eigenvalue=S.eigenvalues.tolist(), abs_rank=rank_of.tolist(),
                 eigenvector_preview=S.left_eigenvectors[:, :8].tolist())
    doc = {"d": S.d, "stationary": S.stationary.mass, "rows": rows}
    _emit(args, "index,eigenvalue,abs_rank", rows, doc)


def _cmd_evolve(args) -> None:
    P = _load_chain(args.chain)
    ts = sorted(set(_parse_int_list(args.t, "--t", lambda ts: [_check_step(min(ts)), _check_step(max(ts))])))
    masses = []
    (current,), alpha = _distributions(P, args.epsilon, args.mu)
    last_t = 0
    for t in ts:
        current = evolve(current, P, t - last_t)
        last_t = t
        masses.append(current.mass.tolist())
    columns = {"t": [t for t in ts for _ in range(P.d)], "state": list(range(P.d)) * len(ts),
               "mass": list(itertools.chain.from_iterable(masses))}
    _emit(args, "t,state,mass", columns, {"rows": _Rows(t=ts, mass=masses)}, alpha)


def _cmd_complexity(args) -> None:
    from .complexity import _check_unit, _complexity_columns, _eigen_summary, pairwise_epsilon
    from .geometry import _times, delta_curve
    from .spectral import spectral_decomposition
    P = _load_chain(args.chain)
    ts = _parse_int_list(args.t, "--t", _times)
    _check_unit(delta=args.delta, eta=args.eta)  # before any solve
    (mu, mu_prime), alpha = _distributions(P, args.epsilon, args.mu, args.mu_prime)
    eps = pairwise_epsilon(mu, mu_prime, P._pi) if args.epsilon is None else args.epsilon
    rows = _Rows(_complexity_columns(ts, delta_curve(P, mu, mu_prime, ts), eps, args.delta, args.eta))
    if args.format == "json":
        rows["eigen_summary"] = [_eigen_summary(spectral_decomposition(P))] * len(ts)
    if alpha is not None:
        rows["alpha"] = [alpha] * len(ts)
    _emit(args, "t,delta_t,n_upper,n_lower,n_star_scale", rows, rows, alpha)


def _cmd_window(args) -> None:
    from .complexity import extreme_pairs, statistical_window
    from .geometry import _times
    P = _load_chain(args.chain)
    ts = _parse_int_list(args.t, "--t", _times)
    explicit = [args.mu, args.mu_prime, args.gamma, args.gamma_prime]
    doc = {}
    if any(explicit):
        if not all(explicit):
            raise InvalidParameter("explicit window pairs need all of --mu/--mu-prime/--gamma/--gamma-prime")
        (mu, mu_prime, gamma, gamma_prime), alpha = _distributions(P, args.epsilon, *explicit)
        pair_a, pair_b = (mu, mu_prime), (gamma, gamma_prime)
        if alpha is not None:
            doc["alpha"] = alpha
    else:
        eps = 0.2 if args.epsilon is None else args.epsilon
        ext = extreme_pairs(P, _extreme_target(eps))
        alpha, pair_a, pair_b = ext.alpha, ext.pair_a, ext.pair_b
        doc = {"alpha": alpha, "epsilon_target": eps, "lambda_2": ext.lambda_2, "lambda_d": ext.lambda_d}
    doc["rows"] = rows = _Rows(t=ts, window=statistical_window(P, pair_a, pair_b, ts).tolist())
    _emit(args, "t,window", rows, doc, alpha)


def _cmd_time(args) -> None:
    from .complexity import _check_crossing, _check_unit, _impossibility_scale, pairwise_epsilon, statistical_time
    P = _load_chain(args.chain)
    ns = _parse_int_list(args.n, "--n", lambda ns: _check_crossing(ns, args.threshold))
    if args.threshold is None:  # the default threshold's --delta and given --epsilon, before any solve
        _check_unit(delta=args.delta)
        if args.epsilon is not None and _impossibility_scale(args.epsilon, args.delta) is None:
            raise InvalidParameter(f"--epsilon must lie in (0, 1) for the default threshold, got {_fmt(args.epsilon)}")
    (mu, mu_prime), alpha = _distributions(P, args.epsilon, args.mu, args.mu_prime)
    threshold = args.threshold
    if threshold is None:  # the impossibility-scale default: the lower-bound constant 8 eps delta^2
        eps = pairwise_epsilon(mu, mu_prime, P._pi) if args.epsilon is None else args.epsilon
        threshold = _impossibility_scale(eps, args.delta)
        if threshold is None:
            raise InvalidParameter(f"measured epsilon is {_fmt(eps)}; pass --threshold explicitly")
    rows = _Rows(n=ns, t_star=statistical_time(P, mu, mu_prime, ns, threshold))
    _emit(args, "n,t_star", rows, {"threshold": threshold, "rows": rows}, alpha)


def _cmd_simulate(args) -> None:
    from .complexity import TestingInstance
    from .montecarlo import _check_run, estimate_error
    P = _load_chain(args.chain)
    ts = _parse_int_list(args.t, "--t", lambda ts: _check_step(ts[0]))
    if len(ts) != 1:
        raise InvalidParameter("simulate takes a single --t")
    n, trials, seed = _check_run(args.n, args.trials, args.seed)  # before any solve
    (mu, mu_prime), alpha = _distributions(P, args.epsilon, args.mu, args.mu_prime)
    inst = TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=ts[0])
    est = estimate_error(inst, n, trials, seed)
    row = est.to_json_dict()
    columns = {field: [value] for field, value in row.items()}
    _emit(args, "err_mu,err_mu_prime,err_max,trials,ci_halfwidth,n,t,seed", columns, row, alpha)


def _cmd_zoo_list(args) -> None:
    names = sorted(ZOO_FAMILIES)
    columns = {"family": names, "parameters": [" ".join(ZOO_FAMILIES[name]) for name in names]}
    _emit(args, "family,parameters", columns, {name: ZOO_FAMILIES[name] for name in names})


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; main dispatches on args.command."""
    parser = _Parser(prog="markovwindow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, chain=True, epsilon=True, delta=False):
        """--format and --output, and --chain, --epsilon and --delta where the command reads them."""
        if chain:
            p.add_argument("--chain", required=True, help="inline JSON chain spec or file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        if epsilon:
            p.add_argument("--epsilon", type=_epsilon_flag, default=None,
                           help="bounded-likelihood-ratio parameter or 'auto' (measured)")
        if delta:
            p.add_argument("--delta", type=float, default=0.1, help="error probability target")

    p = sub.add_parser("spectrum", help="eigenvalues and |eigenvalue| ranks")
    common(p, epsilon=False)

    p = sub.add_parser("evolve", help="push a distribution through t steps")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--t", required=True)

    p = sub.add_parser("complexity", help="decay and sample thresholds per t")
    common(p, delta=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--mu-prime", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--eta", type=float, default=0.75, help="centering weight for the hypothesis-free bound")

    p = sub.add_parser("window", help="normalized complexity ratio of two pairs")
    common(p)
    p.add_argument("--t", required=True)
    p.add_argument("--mu")
    p.add_argument("--mu-prime")
    p.add_argument("--gamma")
    p.add_argument("--gamma-prime")

    p = sub.add_parser("time", help="crossing time t* per sample size")
    common(p, delta=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--mu-prime", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--threshold", type=_finite_flag, default=None)

    p = sub.add_parser("simulate", help="Monte Carlo error of the LR test")
    common(p, delta=True)  # accepted, not read: scripts pass the --delta of the complexity run they check
    p.add_argument("--mu", required=True)
    p.add_argument("--mu-prime", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("zoo-list", help="list chain families and parameters")
    common(p, chain=False, epsilon=False)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # By name at call time: the cached parser binds no handler.
        globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, InvalidParameter) as exc:  # ValueError covers bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except MemoryError as exc:  # numpy refuses the arrays of a chain too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except MarkovWindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXIT if isinstance(exc, BudgetExceeded) else DOMAIN_EXIT
    return 0


def run() -> None:
    """The console script and `python -m markovwindow.cli`: exit with main()'s code.
    The heap is frozen first, so the interpreter's exit-time cycle collections have
    nothing to scan; atexit handlers and the flushes of stdout and stderr still run.
    main() never freezes, as a process may call it many times."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
