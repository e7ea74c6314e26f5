"""Input generator for the bernalg benchmark.

Writes the built-in families and seeded dense copies of them straight to
`.alg` text.  It does not import bernalg: the families are written from
their definitions in the bernalg README, and the dense copies come from an
exact rational change of basis, so the generator can serve as an
independent test oracle.

A dense copy uses the basis f_i = sum_j P[i][j] b_j for a seeded invertible
matrix P with entries in [-2, 2].  Products are re-expressed through the
exact inverse Q = P^-1 (row-vector convention: old coordinates v become
v Q), and the weight is mapped along: w(f_i) = sum_j P[i][j] w(b_j).

    python3 bench/gen.py --workload dense_report --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1
HALF = Fraction(1, 2)


@dataclass
class Table:
    """An algebra by structure constants.

    products maps (i, j) with i <= j to the coordinate tuple of b_i b_j;
    pairs not listed multiply to zero.  weight is None for a plain
    (non-baric) algebra.
    """

    name: str
    basis: tuple
    products: dict
    weight: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)


def _unit(d, k, c=1):
    v = [Fraction(0)] * d
    v[k] = Fraction(c)
    return tuple(v)


def _from_named(name, basis, named, weight_of=None):
    index = {b: i for i, b in enumerate(basis)}
    d = len(basis)
    products = {}
    for (x, y), (coeff, z) in named.items():
        i, j = sorted((index[x], index[y]))
        products[(i, j)] = _unit(d, index[z], coeff)
    weight = None
    if weight_of is not None:
        weight = tuple(Fraction(weight_of.get(b, 0)) for b in basis)
    return Table(name, tuple(basis), products, weight)


def family(kind: str, n: int | None = None) -> Table:
    """A built-in family member, as the bernalg README defines it."""
    if kind == "jordan3":
        named = {("e", "e"): (1, "e"), ("e", "u"): (HALF, "u"), ("u", "u"): (1, "v")}
        return _from_named("jordan3", ["e", "u", "v"], named, {"e": 1})
    name = f"{kind}{n}"
    if kind in ("squareshift", "zhevlakov"):
        basis = [f"e{i}" for i in range(1, n + 1)]
        named = {}
        for i in range(2, n + 1):
            if kind == "squareshift":
                named[(f"e{i}", f"e{i}")] = (1, f"e{i - 1}")
            else:
                for j in range(i, n + 1):
                    named[(f"e{i}", f"e{j}")] = (1, f"e{i - 1}")
        return _from_named(name, basis, named)
    if kind in ("bdown", "bup"):
        v = "v1" if kind == "bdown" else "v2"
        basis = ["e", v] + [f"u{i}" for i in range(1, n + 1)]
        named = {("e", "e"): (1, "e")}
        for i in range(1, n + 1):
            named[("e", f"u{i}")] = (HALF, f"u{i}")
        if kind == "bdown":
            for i in range(2, n + 1):
                named[(f"u{i}", v)] = (1, f"u{i - 1}")
        else:
            for i in range(1, n):
                named[(f"u{i}", v)] = (1, f"u{i + 1}")
        return _from_named(name, basis, named, {"e": 1})
    raise ValueError(f"unknown family {kind!r}")


def skew(kind: str, n: int) -> Table:
    """bdown(n) or bup(n) with e*u1 = u1 in place of u1/2.

    The weight stays multiplicative (u1 has weight 0), but u1 is an
    eigenvector of e for the eigenvalue 1, so the algebra is not Bernstein
    and its barideal does not split into the 1/2- and 0-eigenspaces.
    """
    t = family(kind, n)
    products = dict(t.products)
    products[(0, 2)] = _unit(t.dim, 2)
    return Table(f"skew{kind}{n}", t.basis, products, t.weight)


def inverse(p):
    """Exact inverse of a square Fraction matrix, or None if singular."""
    d = len(p)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(p)]
    for col in range(d):
        pick = next((r for r in range(col, d) if m[r][col]), None)
        if pick is None:
            return None
        m[col], m[pick] = m[pick], m[col]
        piv = m[col][col]
        m[col] = [x / piv for x in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[d:] for row in m]


def random_invertible(d: int, rng: random.Random, weight=None):
    """A seeded invertible d x d integer matrix with entries in [-2, 2].

    With a weight given, every row r also has sum_j r_j w_j != 0, so every
    new basis vector has nonzero weight.  Returns (P, P^-1).
    """
    while True:
        p = []
        while len(p) < d:
            row = [rng.randint(-2, 2) for _ in range(d)]
            if weight is not None and not sum(r * w for r, w in zip(row, weight)):
                continue
            p.append(row)
        q = inverse(p)
        if q is not None:
            return p, q


def change_basis(t: Table, p, q, name: str) -> Table:
    """The table of t in the basis f_i = sum_j p[i][j] b_j; q = p^-1."""
    d = t.dim
    zero = Fraction(0)

    def old_product(x, y):
        acc = [zero] * d
        for a in range(d):
            if not x[a]:
                continue
            for b in range(d):
                if not y[b]:
                    continue
                row = t.products.get((a, b) if a <= b else (b, a))
                if row:
                    c = x[a] * y[b]
                    for k in range(d):
                        if row[k]:
                            acc[k] += c * row[k]
        return acc

    products = {}
    for i in range(d):
        for j in range(i, d):
            v = old_product(p[i], p[j])
            y = tuple(sum((v[s] * q[s][k] for s in range(d) if v[s]), zero)
                      for k in range(d))
            if any(y):
                products[(i, j)] = y
    weight = None
    if t.weight is not None:
        weight = tuple(sum((Fraction(p[i][j]) * t.weight[j] for j in range(d)), zero)
                       for i in range(d))
    return Table(name, tuple(f"x{i}" for i in range(1, d + 1)), products, weight)


def dense_copy(t: Table, rng: random.Random, name: str | None = None) -> Table:
    """Seeded change-of-basis copy in which every basis vector of a baric
    table has nonzero weight, so that every pair product is nonzero."""
    p, q = random_invertible(t.dim, rng, t.weight)
    return change_basis(t, p, q, name or f"dense{t.name}")


def serialize(t: Table) -> str:
    """Canonical `.alg` text: nonzero weights, then the products in basis
    order with their terms in basis order (bernalg's own canonical form)."""
    lines = [f"algebra {t.name}", "basis " + " ".join(t.basis)]
    if t.weight is not None:
        lines += [f"weight {b} {w}" for b, w in zip(t.basis, t.weight) if w]
    for (i, j) in sorted(t.products):
        terms = [f"{c} {t.basis[k]}" for k, c in enumerate(t.products[(i, j)]) if c]
        if terms:
            lines.append(f"prod {t.basis[i]} {t.basis[j]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


# -- the inputs of each workload ----------------------------------------------

# Sizes are chosen so that one pass over a workload takes a few seconds, and
# the layer named in the workload's README entry still dominates.
SPARSE_SIZES = (6, 8)
CHAIN_SIZES = (7, 8)
# Dense copies vary in cost with their matrix, so a pass holds several
# copies of each source: the pass total then varies little from seed to seed.
DENSE_SIZES = (3,)
DENSE_COPIES = 6


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def workload_inputs(workload: str, seed: int):
    """[(table, meta)] for a workload; meta records what the table is."""
    out = []
    if workload == "sparse_report":
        for n in SPARSE_SIZES:
            for kind in ("bdown", "bup"):
                out.append((family(kind, n), {"kind": kind, "n": n, "dense": False}))
    elif workload == "dense_report":
        for n in DENSE_SIZES:
            for kind in ("bdown", "bup"):
                for c in range(1, DENSE_COPIES + 1):
                    label = f"{kind}{n}_{c}"
                    t = dense_copy(family(kind, n), _rng(seed, label), f"dense{label}")
                    out.append((t, {"kind": kind, "n": n, "dense": True}))
    elif workload == "full_chain":
        for n in CHAIN_SIZES:
            for kind in ("squareshift", "zhevlakov"):
                out.append((family(kind, n), {"kind": kind, "n": n, "dense": False}))
    elif workload == "cli_session":
        out = cli_inputs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


# Malformed files, each with the 1-based line of its first error.
MALFORMED = {
    "bad_rational": ("algebra m1\nbasis e u\nweight e 1\nprod e e = 1/0 e\n", 4),
    "unknown_id": ("algebra m2\nbasis e u\nweight e 1\nprod e w = 1 e\n", 4),
    "no_basis": ("algebra m3\nweight e 1\n", 2),
    "conflict": ("algebra m4\nbasis e u\nprod e u = 1 u\nprod u e = 2 u\n", 4),
    "directive": ("algebra m5\nbasis e u\nmul e e = 1 e\n", 3),
    "no_header": ("basis e u\nprod e e = 1 e\n", 1),
}


def cli_inputs(seed: int):
    """Small files (dim 3-7) for the CLI session.

    The non-Bernstein files are sparse and do not depend on the seed: the
    subcommands that fail on them fail on every seed.
    """
    out = []
    for kind, n in (("bdown", 2), ("bdown", 3), ("bup", 4), ("bdown", 5)):
        out.append((family(kind, n), {"kind": kind, "n": n, "dense": False,
                                      "role": "bernstein"}))
    out.append((family("jordan3"), {"kind": "jordan3", "n": None, "dense": False,
                                    "role": "bernstein"}))
    # dense copies cost more or less with their matrix, so they are kept
    # small (dims 3-4) and the session total varies little with the seed
    for kind, n in (("bdown", 2), ("bup", 2), ("jordan3", None)):
        t = dense_copy(family(kind, n), _rng(seed, f"cli{kind}{n}"))
        out.append((t, {"kind": kind, "n": n, "dense": True, "role": "bernstein"}))
    for kind, n in (("bdown", 2), ("bup", 3)):
        out.append((skew(kind, n), {"kind": kind, "n": n, "dense": False,
                                    "role": "not_bernstein"}))
    for kind, n in (("squareshift", 4), ("zhevlakov", 5), ("squareshift", 5)):
        out.append((family(kind, n), {"kind": kind, "n": n, "dense": False,
                                      "role": "plain"}))
    t = dense_copy(family("zhevlakov", 4), _rng(seed, "clizhevlakov4"))
    out.append((t, {"kind": "zhevlakov", "n": 4, "dense": True, "role": "plain"}))
    return out


def write_inputs(workload: str, seed: int, out_dir: str) -> list:
    """Write a workload's `.alg` files and `manifest.json`; return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for t, meta in workload_inputs(workload, seed):
        fname = f"{t.name}.alg"
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(serialize(t))
        manifest.append(dict(meta, file=fname, name=t.name, dim=t.dim))
    if workload == "cli_session":
        for label, (text, line) in MALFORMED.items():
            fname = f"malformed_{label}.alg"
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
            manifest.append({"file": fname, "name": f"malformed_{label}",
                             "role": "malformed", "error_line": line})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sparse_report", "dense_report", "full_chain", "cli_session"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for entry in write_inputs(args.workload, args.seed, args.out):
        print(entry["file"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
