"""Facts about the benchmark inputs, computed apart from bernalg.

* `parse_alg` reads `.alg` text into a `gen.Table` with its own small parser.
* `Evaluator` multiplies elements straight from the structure constants and
  evaluates the defect of every identity bernalg checks.
* `closed_form` gives the basis-independent report fields of a family
  member, derived by hand from the family definitions in the README:

  - bdown(n), bup(n): e*u_i = u_i/2 and v*u_i shifts u_i by one index
    (down for bdown, up for bup).  So U = <u_1..u_n>, V = <v>, U*U = 0 and
    annU = U.  N^k = <n+1-k u's>, hence the full and principal nil indices
    are n+1, N*N*(N*N) = 0 gives solvability index 2 (1 when n = 1), the
    chain I -> V*I has dimensions n+1, n-1, ..., 0, and L_v on N is a shift
    of index n whose powers L, ..., L^(n-1) span the closure.  The
    algebra is Bernstein, never nuclear (U^2 = 0 != V), and Jordan only for
    n <= 2, since (u_3 v) v != 0.  The certificate's F is N itself.
  - squareshift(n), zhevlakov(n): a product of e_a and e_b is either zero or
    e_(min(a,b)-1), so if S^r = <e_1..e_d(r)> then S^r S^s = <e_1..
    e_(min(d(r), d(s))-1)>.  Hence d(i) = n - ceil(log2 i): the full nil
    index is 2^(n-1)+1, while the principal and plenary chains lose one
    dimension per step (principal nil index n+1, solvability index n).
    (x^2)^2 != 0 for n >= 3.
  - jordan3: U = <u>, V = <v>, U*U = V, so it is nuclear and Jordan with
    annU = 0; N^3 = 0.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bench.gen import Table

ZERO = Fraction(0)


def parse_alg(text: str) -> Table:
    """Parse canonical `.alg` text (as written by gen or bernalg)."""
    name, basis, weights, named = None, [], {}, {}
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "algebra":
            name = tok[1]
        elif tok[0] == "basis":
            basis = tok[1:]
        elif tok[0] == "weight":
            weights[tok[1]] = Fraction(tok[2])
        elif tok[0] == "prod":
            terms = [t for t in tok[4:] if t != "+"]
            named[(tok[1], tok[2])] = [(Fraction(terms[k]), terms[k + 1])
                                       for k in range(0, len(terms), 2)]
        else:
            raise ValueError(f"unexpected line {raw!r}")
    index = {b: i for i, b in enumerate(basis)}
    d = len(basis)
    products = {}
    for (x, y), terms in named.items():
        v = [ZERO] * d
        for c, z in terms:
            v[index[z]] += c
        products[tuple(sorted((index[x], index[y])))] = tuple(v)
    weight = tuple(weights.get(b, ZERO) for b in basis) if weights else None
    return Table(name, tuple(basis), products, weight)


class Evaluator:
    """Direct evaluation on a structure-constant table."""

    def __init__(self, table: Table):
        self.t = table
        self.d = table.dim

    def vec(self, coords):
        return tuple(Fraction(c) for c in coords)

    def mul(self, x, y):
        d = self.d
        acc = [ZERO] * d
        for (i, j), row in self.t.products.items():
            c = x[i] * y[j] + (x[j] * y[i] if i != j else ZERO)
            if c:
                for k in range(d):
                    if row[k]:
                        acc[k] += c * row[k]
        return tuple(acc)

    def add(self, *vs):
        return tuple(sum(col, ZERO) for col in zip(*vs))

    def scale(self, c, x):
        return tuple(c * a for a in x)

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def omega(self, x):
        if self.t.weight is None:
            raise ValueError("plain algebra has no weight")
        return sum((w * c for w, c in zip(self.t.weight, x)), ZERO)

    def defect(self, ident: str, a: dict):
        """The defect of an identity at an assignment {var: coords}."""
        x = a["x"]
        sq = self.mul(x, x)
        if ident == "bernstein":
            w = self.omega(x)
            return self.sub(self.mul(sq, sq), self.scale(w * w, sq))
        if ident == "jordan":
            y = a["y"]
            return self.sub(self.mul(x, self.mul(sq, y)), self.mul(sq, self.mul(x, y)))
        if ident == "cube_weight":
            return self.sub(self.mul(sq, x), self.scale(self.omega(x), sq))
        if ident == "jacobi":
            y, z = a["y"], a["z"]
            return self.add(self.mul(self.mul(x, y), z), self.mul(self.mul(y, z), x),
                            self.mul(self.mul(z, x), y))
        if ident == "cube_zero":
            return self.mul(sq, x)
        if ident == "square_square_zero":
            return self.mul(sq, sq)
        raise ValueError(f"unknown identity {ident!r}")

    def probe(self, ident: str, seed: int, trials: int = 3) -> bool:
        """True when the identity vanishes at `trials` seeded random points."""
        rng = random.Random(f"{seed}:{ident}")
        names = {"jordan": "xy", "jacobi": "xyz"}.get(ident, "x")
        for _ in range(trials):
            a = {v: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(self.d)) for v in names}
            if any(self.defect(ident, a)):
                return False
        return True


def coords(strings) -> tuple:
    return tuple(Fraction(s) for s in strings)


def check_identity_witness(ev: Evaluator, ident: str, w: dict) -> str | None:
    """Re-evaluate an identity witness; None when it reproduces the residual."""
    a = {var: coords(c) for var, c in w["assignment"].items()}
    got = ev.defect(ident, a)
    if not any(got):
        return f"{ident} witness has a zero defect"
    if got != coords(w["residual"]):
        return f"{ident} witness residual differs from the re-evaluated defect"
    return None


def check_flag_witness(ev: Evaluator, key: str, w: dict, e) -> str | None:
    """Re-evaluate a classification witness against the idempotent e."""
    a = {var: coords(c) for var, c in w["assignment"].items()}
    res = coords(w["residual"])
    half = Fraction(1, 2)
    if key == "bernstein":
        return check_identity_witness(ev, "bernstein", w)
    if key == "nuclear":
        v = a["v"]
        if not any(v) or any(ev.mul(e, v)) or ev.omega(v) or res != v:
            return "nuclear witness is not a nonzero element of V"
        return None
    if key == "jordan":
        for var in ("v", "w"):
            if var in a and (any(ev.mul(e, a[var])) or ev.omega(a[var])):
                return f"jordan witness {var} is not in V"
        if "u" not in a:
            got = ev.mul(a["v"], a["w"])
        else:
            u = a["u"]
            if ev.mul(e, u) != ev.scale(half, u) or ev.omega(u):
                return "jordan witness u is not in U"
            got = ev.mul(ev.mul(u, a["v"]), a["v"])
            if "w" in a:
                got = ev.add(ev.mul(ev.mul(u, a["v"]), a["w"]),
                             ev.mul(ev.mul(u, a["w"]), a["v"]))
        if not any(got) or got != res:
            return "jordan witness does not reproduce its residual"
        return None
    return f"no re-evaluation for witness {key!r}"


def full_chain_dims(n: int) -> list:
    """Dimensions of S^1, S^2, ... down to 0 for squareshift/zhevlakov(n)."""
    dims = [n]
    i = 1
    while dims[-1]:
        i += 1
        dims.append(max(n - (i - 1).bit_length(), 0))
    return dims


def closed_form(kind: str, n: int | None) -> dict:
    """Basis-independent report fields of a family member (see module doc)."""
    if kind in ("squareshift", "zhevlakov"):
        return {
            "baric": False,
            "dimension": n,
            "chains": {"full_nil_index": 2 ** (n - 1) + 1,
                       "principal_nil_index": n + 1,
                       "solvability_index": n},
            "fails": ["square_square_zero"] if n >= 3 else [],
            "principal_dims": list(range(n, -1, -1)),
            "plenary_dims": list(range(n, -1, -1)),
            "full_dims": full_chain_dims(n),
            "certificate": {"f_dim": n, "m": 2 ** (n - 1) + 1,
                            "power_inclusions_checked_up_to": 2 ** (n - 1) + 1,
                            "n_equals_f_plus_nm": True, "n_nilpotent": True},
        }
    if kind == "jordan3":
        u, v, ann, nil, solv, jordan, nuclear = 1, 1, 0, 3, 2, True, True
        fixed, closure, gens, dim = [2, 0], (0, 1), 1, 3
        chain_dims = [2, 1, 0]
    elif kind in ("bdown", "bup"):
        u, v, ann, nil = n, 1, n, n + 1
        solv = 2 if n >= 2 else 1
        jordan, nuclear = n <= 2, False
        fixed = [n + 1] + list(range(n - 1, -1, -1))
        closure, gens, dim = (n - 1, n), 1, n + 2
        chain_dims = [n + 1] + list(range(n - 1, -1, -1))
    else:
        raise ValueError(f"no closed form for {kind!r}")
    return {
        "baric": True,
        "dimension": dim,
        "flags": {"baric": True, "bernstein": True, "jordan": jordan,
                  "nuclear": nuclear, "barideal_nilpotent": True},
        "holds": ["bernstein"],
        "peirce": {"n_dim": u + v, "u_dim": u, "v_dim": v, "ann_u_dim": ann,
                   "relations_ok": True},
        "chains": {"full_nil_index": nil, "principal_nil_index": nil,
                   "solvability_index": solv},
        "principal_dims": chain_dims,
        "full_dims": chain_dims,
        "plenary_dims": [u + v] + ([chain_dims[1], 0] if chain_dims[1] else [0]),
        "fixed_subspace": {"chain_dims": fixed, "gfp_dim": 0},
        "mult_closure": {"generator_count": gens, "closure_dim": closure[0],
                         "nilpotent": True, "nil_index": closure[1]},
        "certificate": {"f_dim": u + v, "m": nil,
                        "power_inclusions_checked_up_to": nil,
                        "n_equals_f_plus_nm": True, "n_nilpotent": True},
    }
