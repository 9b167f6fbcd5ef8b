"""Correctness checks for benchmark ops, each against an independent oracle.

Inputs (chains, and the distributions a spec like `extreme:[2]:auto:+` names)
are built with the package's public API.  Outputs are then checked against:

- closed-form spectra: the zoo companions (`cycle_spectrum`, ...), and here
  the lazy cycle, the two-block circulant (`blockmodel2`) and, for
  `random_chain`, `eigvalsh` on the bench's own symmetrisation;
- closed-form stationary distributions (uniform, degree-proportional, or
  pi_i ~ P_0i / P_i0 for a reversible chain with a positive row 0);
- Delta(t) by repeated vector-matrix products of mu - mu', never through
  the eigenbasis;
- the window identity (|lambda_[2]| / |lambda_[d]|)^{2t};
- exact product enumeration written here with numpy outer products.

`check(op, outcome)` returns (ok, defect, reason).  A failed check is
attributed to a named defect from DEFECTS when the oracle shows the
defect's trigger; otherwise `defect` is None and the failure is unexplained.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import markovwindow as mw
from markovwindow import zoo

EPS = np.finfo(float).eps
LOG_TINY = math.log(sys.float_info.min)
LOG_HUGE = math.log(sys.float_info.max)
REL = 1e-9

DEFECTS = {
    "window-underflow": (
        "statistical_window forms (Delta_A(t) Delta_B(0)) / (Delta_B(t) Delta_A(0)) from the "
        "decays themselves; once lambda_[d]^{2t} Delta(0)^2 drops below the smallest normal "
        "float the denominator is subnormal or 0, so the window raises ZeroDivisionError, "
        "returns inf where the identity is finite, or raises UndefinedWindow where it is inf"
    ),
}

HEADERS = {
    "spectrum": "index,eigenvalue,abs_rank",
    "evolve": "t,state,mass",
    "complexity": "t,delta_t,n_upper,n_lower,n_star_scale",
    "window": "t,window",
    "time": "n,t_star",
    "simulate": "err_mu,err_mu_prime,err_max,trials,ci_halfwidth,n,t,seed",
    "zoo-list": "family,parameters",
}


def num(x) -> float:
    return math.inf if x == "inf" else float(x)


def flags(argv: list[str]) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def int_list(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


class Chain:
    """A chain of an op with its oracle facts."""

    def __init__(self, spec: str, family):
        if spec.startswith("{"):
            parsed = json.loads(spec)
        else:
            with open(spec) as fh:
                parsed = json.load(fh)
        self.P = zoo.chain_from_spec(parsed)
        P = self.P.entries
        d = self.d = P.shape[0]
        kind = family or parsed["type"]
        if kind == "cycle":
            lam = zoo.cycle_spectrum(d)
        elif kind == "lazy_cycle":
            lam = 0.5 * (1.0 + zoo.cycle_spectrum(d))
        elif kind == "line":
            lam = zoo.line_spectrum(d)
        elif kind == "pachinko":
            lam = zoo.pachinko_spectrum(parsed["r"], parsed["betas"])
        elif kind == "blockmodel2":
            lam = blockmodel2_spectrum(d, parsed["intra_degree"], parsed["inter_degree"])
        else:
            lam = None
        if kind == "line":
            pi = np.full(d, 2.0)
            pi[[0, -1]] = 1.0
        elif kind == "random_chain":
            pi = P[0] / P[:, 0]
        else:
            pi = np.ones(d)
        self.pi = pi / pi.sum()
        if lam is None:
            root = np.sqrt(self.pi)
            S = root[:, None] * P / root[None, :]
            lam = np.linalg.eigvalsh(0.5 * (S + S.T))
        self.spectrum = np.sort(lam)
        absl = np.sort(np.abs(lam))[::-1]
        self.l2 = 1.0 if abs(absl[1] - 1.0) <= 1e-12 else absl[1]
        self.ld = 0.0 if absl[-1] < 1e-13 else absl[-1]
        below = absl[absl < 1.0 - 1e-12]
        self.rho = float(below[0]) if below.size else 0.0

    def dist(self, spec: str, eps_flag):
        """The distribution an op's spec names, as the CLI resolves it."""
        if spec == "stationary":
            return mw.spectral_decomposition(self.P).stationary.mass
        if spec.startswith("point:"):
            return mw.Distribution.point(self.d, int(spec[6:])).mass
        _, rank, alpha, sign = spec.split(":")
        S = mw.spectral_decomposition(self.P)
        u = S.left_by_abs_rank(2 if rank == "[2]" else S.d)
        a = self.alpha(eps_flag) if alpha == "auto" else float(alpha)
        return S.stationary.mass + (1.0 if sign == "+" else -1.0) * a * u

    def alpha(self, eps_flag) -> float:
        eps = 0.2 if eps_flag in (None, "auto") else float(eps_flag)
        return mw.extreme_pairs(self.P, eps).alpha

    def deltas(self, v0: np.ndarray, ts) -> dict:
        """||v0 P^t||_pi^2 at each t, by repeated products."""
        out, v, P = {}, v0.copy(), self.P.entries
        want = sorted(set(ts))
        t = 0
        for target in want:
            while t < target:
                v = v @ P
                t += 1
            out[t] = float(np.sum(v * v / self.pi))
        return out

    def close(self, got: float, ref: float, t: int, delta0: float) -> bool:
        return abs(got - ref) <= REL * ref + self.slack(t, delta0, ref)

    def slack(self, t: int, delta0: float, ref: float) -> float:
        """Roundoff bound of `deltas`: each product adds at most d*eps of
        the current vector, so after t steps the error is at most
        g = (t + 1) d eps relative to ||v0||, giving 2 g sqrt(D0 ref) + g^2 D0."""
        g = (t + 1) * self.d * EPS
        return 2.0 * g * math.sqrt(delta0 * max(ref, 0.0)) + g * g * delta0


def blockmodel2_spectrum(d: int, intra: int, inter: int) -> np.ndarray:
    """Both blocks are circulant, so each Fourier mode k of Z_{d/2} gives
    the 2 x 2 block [[c1, c2], [conj c2, c1]] with eigenvalues c1 +- |c2|."""
    m = d // 2
    offsets = list(range(1, intra // 2 + 1)) + [m - o for o in range(1, intra // 2 + 1)]
    if intra % 2:
        offsets.append(m // 2)
    k = np.arange(m)[:, None]
    c1 = np.cos(2 * np.pi * k * np.array(offsets)[None, :] / m).sum(axis=1)
    c2 = np.abs(np.exp(2j * np.pi * k * np.arange(inter)[None, :] / m).sum(axis=1))
    return np.concatenate([c1 + c2, c1 - c2]) / (intra + inter)


def pairwise_eps(p, q, pi) -> float:
    def one(a, b):
        if np.any((a == 0) != (b == 0)):
            return 0.0
        on = a > 0
        r = a[on] / b[on]
        return min(r.min(), 1.0 / r.max())

    return min(one(p, q), one(p, pi), one(q, pi))


def product_tables(p, q, n):
    pp, qq = p.copy(), q.copy()
    for _ in range(n - 1):
        pp = np.multiply.outer(pp, p).ravel()
        qq = np.multiply.outer(qq, q).ravel()
    return pp, qq


def exact_tv_lr(p, q, n):
    pp, qq = product_tables(np.asarray(p), np.asarray(q), n)
    mu_wins = pp > qq
    return 0.5 * float(np.abs(pp - qq).sum()), max(float(pp[~mu_wins].sum()), float(qq[mu_wins].sum()))


class Checker:
    def __init__(self):
        self._chains = {}
        self._wrong_t = []

    def chain(self, op) -> Chain:
        spec = flags(op.argv)["chain"]
        if spec not in self._chains:
            self._chains[spec] = Chain(spec, op.facts.get("family"))
        return self._chains[spec]

    def check(self, op, oc) -> tuple[bool, str | None, str]:
        self._wrong_t = []
        try:
            why = self._call(op, oc) if op.call else self._cli(op, oc)
        except Exception as exc:  # a malformed output is a failed check
            why = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if not why:
            return True, None, ""
        defect = None
        if op.argv and op.argv[0] == "window":
            defect = self._window_defect(op, oc)
        return False, defect, "; ".join(why)[:300]

    # ---- oracle calls -------------------------------------------------
    def _call(self, op, oc):
        if oc["exc"]:
            return [f"raised {oc['exc'].strip().splitlines()[-1]}"]
        p, q, n = op.args
        tv, lr = exact_tv_lr(p.mass, q.mass, n)
        got = float(oc["out"])
        if op.call == "exact_product_tv":
            ok = 0.0 <= got <= 1.0 and abs(got - tv) <= 1e-12
            return [] if ok else [f"TV {got!r}, enumeration gives {tv!r}"]
        ok = (1.0 - tv) / 2.0 - 1e-12 <= got <= 1.0 and abs(got - lr) <= 1e-12
        return [] if ok else [f"LR error {got!r}, TV {tv!r}, enumeration gives {lr!r}"]

    # ---- CLI commands -------------------------------------------------
    def _cli(self, op, oc):
        sub, f = op.argv[0], flags(op.argv)
        rc, err = oc["rc"], oc["err"]
        if oc["exc"]:
            return [f"raised {oc['exc'].strip().splitlines()[-1]}"]
        if "Traceback" in err:
            return [f"traceback: {err.strip().splitlines()[-1]}"]
        if rc not in (0, 1, 2, 3):
            return [f"exit code {rc} outside 0-3"]
        if rc != op.expect_rc:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            return [f"exit code {rc}, expected {op.expect_rc}: {last}"]
        if rc != 0:
            return [] if "error:" in err else ["no error message"]
        js = f.get("format") == "json"
        if js:
            data = json.loads(oc["out"])
        else:
            lines = oc["out"].strip().splitlines()
            if lines[0] != HEADERS[sub]:
                return [f"CSV header {lines[0]!r}, expected {HEADERS[sub]!r}"]
            cols = lines[0].split(",")
            data = [dict(zip(cols, line.split(","))) for line in lines[1:]]
        return getattr(self, "_" + sub.replace("-", "_"))(op, f, data, js)

    def _spectrum(self, op, f, data, js):
        c = self.chain(op)
        rows = data["rows"] if js else data
        lam = np.sort([num(r["eigenvalue"]) for r in rows])
        why = []
        if lam.size != c.d or np.max(np.abs(lam - c.spectrum)) > REL:
            why.append("eigenvalues differ from the closed form by more than 1e-9")
        if js:
            pi = np.asarray(data["stationary"], dtype=float)
            if abs(pi.sum() - 1.0) > 1e-12 or np.any(pi <= 0):
                why.append("stationary vector is not a positive distribution")
            if np.max(np.abs(pi @ c.P.entries - pi)) > 1e-10:
                why.append("stationary residual |pi P - pi| exceeds 1e-10")
            if np.max(np.abs(pi - c.pi)) > REL * c.pi.max():
                why.append("stationary vector differs from the closed form")
        return why

    def _evolve(self, op, f, data, js):
        c = self.chain(op)
        v = c.dist(f["mu"], f.get("epsilon"))
        got = {}
        if js:
            for r in data["rows"]:
                got[r["t"]] = np.asarray(r["mass"], dtype=float)
        else:
            for r in data:
                got.setdefault(int(r["t"]), np.zeros(c.d))[int(r["state"])] = num(r["mass"])
        t = 0
        for target in sorted(got):
            while t < target:
                v = v @ c.P.entries
                t += 1
            if np.max(np.abs(got[target] - v)) > 1e-12:
                return [f"mass at t={target} differs from repeated products"]
        return [] if sorted(got) == sorted(set(int_list(f["t"]))) else ["rows do not match --t"]

    def _pair(self, op, f):
        c = self.chain(op)
        mu, mup = c.dist(f["mu"], f.get("epsilon")), c.dist(f["mu-prime"], f.get("epsilon"))
        v0 = mu - mup
        return c, mu, mup, v0, float(np.sum(v0 * v0 / c.pi))

    def _complexity(self, op, f, data, js):
        c, _, _, v0, d0 = self._pair(op, f)
        rows = [(int(r["t"]), num(r["delta_t"])) for r in data]
        if [t for t, _ in rows] != int_list(f["t"]):
            return ["rows do not match --t"]
        ref = c.deltas(v0, [t for t, _ in rows])
        bad = [t for t, got in rows if not c.close(got, ref[t], t, d0)]
        return [f"delta_t differs from repeated products at t={bad[:5]}"] if bad else []

    def _window(self, op, f, data, js):
        c = self.chain(op)
        rows = data["rows"] if js else data
        rows = [(int(r["t"]), num(r["window"])) for r in rows]
        if [t for t, _ in rows] != int_list(f["t"]):
            return ["rows do not match --t"]
        bad = [t for t, w in rows if not _same(w, self.window_identity(c, t))]
        self._wrong_t = bad
        return [f"window differs from (lambda_[2]/lambda_[d])^(2t) at {len(bad)} rows, t={bad[:3]}..."] if bad else []

    @staticmethod
    def window_identity(c: Chain, t: int) -> float:
        if t == 0:
            return 1.0
        if c.ld == 0.0:
            return math.inf
        e = 2.0 * t * (math.log(c.l2) - math.log(c.ld))
        return math.inf if e > LOG_HUGE else math.exp(e)

    def _time(self, op, f, data, js):
        c, mu, mup, v0, d0 = self._pair(op, f)
        delta = float(f.get("delta", 0.1))
        if "threshold" in f:
            thr = float(f["threshold"])
        else:
            eps = f.get("epsilon")
            eps = pairwise_eps(mu, mup, c.pi) if eps in (None, "auto") else float(eps)
            thr = 8.0 * eps * delta**2
        rows = data["rows"] if js else data
        rows = [(int(r["n"]), num(r["t_star"])) for r in rows]
        if [n for n, _ in rows] != int_list(f["n"]):
            return ["rows do not match --n"]
        if js and abs(num(data["threshold"]) - thr) > REL * thr:
            return [f"threshold {data['threshold']} differs from {thr!r}"]
        need = set()
        horizon = 0
        if c.rho > 0.0:
            horizon = math.ceil(math.log(max(d0, 1e-300) * 1e12 / thr) / (2.0 * -math.log(c.rho)))
        for n, t in rows:
            if math.isinf(t):
                need.add(horizon)
            else:
                need.update({int(t), max(int(t) - 1, 0)})
        ref = c.deltas(v0, need)
        why = []
        for n, t in rows:
            if math.isinf(t):
                # Delta(T) <= permanent mass + D0 rho^{2T}; T makes the last term tiny.
                perm = ref[horizon] - c.slack(horizon, d0, ref[horizon]) - d0 * c.rho ** (2 * horizon)
                if not n * perm > thr * (1.0 + REL):
                    why.append(f"n={n}: t*=inf but n Delta({horizon}) reaches the threshold")
                continue
            t = int(t)
            if n * ref[t] > thr * (1.0 + REL) + n * c.slack(t, d0, ref[t]):
                why.append(f"n={n}: n Delta(t*={t}) is above the threshold")
            if t >= 1 and not n * ref[t - 1] > thr * (1.0 - REL) - n * c.slack(t - 1, d0, ref[t - 1]):
                why.append(f"n={n}: t*={t} is not minimal")
        return why

    def _simulate(self, op, f, data, js):
        r = data if js else data[0]
        e_mu, e_mup, e_max, ci = (num(r[k]) for k in ("err_mu", "err_mu_prime", "err_max", "ci_halfwidth"))
        trials, n, t = int(f["trials"]), int(f["n"]), int(f["t"])
        why = []
        if (int(r["trials"]), int(r["n"]), int(r["t"]), int(r["seed"])) != (trials, n, t, int(f["seed"])):
            why.append("echoed parameters differ from the command")
        if not (0 <= e_mu <= 1 and 0 <= e_mup <= 1 and e_max == max(e_mu, e_mup)):
            why.append("error rates are inconsistent")
        if abs(ci - 1.96 * math.sqrt(e_max * (1 - e_max) / trials)) > 1e-12:
            why.append("CI half-width does not match 1.96 sqrt(p(1-p)/trials)")
        if op.facts.get("at_n_upper") or op.facts.get("exact"):
            c, mu, mup, v0, d0 = self._pair(op, f)
            delta = float(f.get("delta", 0.1))
        if op.facts.get("at_n_upper"):
            eps = pairwise_eps(mu, mup, c.pi)
            n_up = math.ceil(16.0 * eps**-2.5 * math.log(1.0 / delta) / c.deltas(v0, [t])[t])
            if abs(n - n_up) > 1:
                why.append(f"n={n} is not n_upper={n_up}")
            if e_max > delta + 3.0 * ci:
                why.append(f"err_max {e_max} exceeds delta + 3 CI at n_upper")
        if op.facts.get("exact"):
            p, q = mu, mup
            for _ in range(t):
                p, q = p @ c.P.entries, q @ c.P.entries
            _, lr = exact_tv_lr(p, q, n)
            if abs(e_max - lr) > 5.0 * math.sqrt(lr * (1 - lr) / trials) + 1.0 / trials:
                why.append(f"err_max {e_max} is more than 5 sigma from the exact {lr!r}")
        return why

    def _zoo_list(self, op, f, data, js):
        names = sorted(data) if js else sorted(r["family"] for r in data)
        return [] if names == sorted(zoo.ZOO_FAMILIES) else ["family list differs from the zoo"]

    # ---- attribution --------------------------------------------------
    def _window_defect(self, op, oc):
        """window-underflow when the failure sits where lambda_[d]^{2t} Delta(0)^2 underflows."""
        try:
            c = self.chain(op)
            f = flags(op.argv)
            log_d0 = math.log(4.0 * c.alpha(f.get("epsilon")) ** 2)
        except Exception:
            return None

        def under(t):
            return c.ld > 0.0 and 2.0 * t * math.log(c.ld) + 2.0 * log_d0 < LOG_TINY

        text = (oc["exc"] or "") + oc["err"]
        if "ZeroDivisionError" in text and "statistical_window" in text:
            return "window-underflow" if any(under(t) for t in int_list(f["t"])) else None
        if "both pairs have fully decayed at t = " in text:
            t = int(text.split("fully decayed at t = ")[1].split()[0])
            ok = under(t) and math.isinf(self.window_identity(c, t))
            return "window-underflow" if ok else None
        wrong = self._wrong_t
        if wrong and oc["rc"] == 0 and all(under(t) for t in wrong):
            return "window-underflow"
        return None


def _same(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= REL * want
