"""The benchmark's items and the checks on their outputs.

An item is one call into bernalg's public API.  `run()` makes the call and
returns its output; `check(output)` returns a list of problems, empty when
the output is right.  Checks use only `bench.oracle`, never bernalg.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os

from bench import gen, oracle

WORKLOADS = ("sparse_report", "dense_report", "full_chain", "cli_session")
# Per-item wall-clock limits in seconds; an item over its limit fails.
ITEM_LIMIT = {"sparse_report": 60.0, "dense_report": 60.0, "full_chain": 60.0,
              "cli_session": 10.0}
PROBE_SEED = 7


def _identity_problems(ev, identities: dict, facts: dict) -> list:
    """Re-evaluate every identity witness; probe every 'holds' verdict."""
    problems = []
    for ident, res in identities.items():
        if res is True:
            if not ev.probe(ident, PROBE_SEED):
                problems.append(f"identity {ident} reported to hold but fails a probe")
        else:
            err = oracle.check_identity_witness(ev, ident, res)
            if err:
                problems.append(err)
    for ident in facts.get("holds", ()):
        if identities.get(ident) is not True:
            problems.append(f"identity {ident} should hold")
    for ident in facts.get("fails", ()):
        if identities.get(ident) is True:
            problems.append(f"identity {ident} should fail")
    return problems


def _compare(problems, where, got, want):
    if got != want:
        problems.append(f"{where}: got {got!r}, want {want!r}")


def report_problems(report: dict, table, facts: dict) -> list:
    """Check a build_report payload against the closed forms and re-evaluate
    its witnesses on the table."""
    ev = oracle.Evaluator(table)
    problems = []
    _compare(problems, "dimension", report.get("dimension"), facts["dimension"])
    _compare(problems, "baric", report.get("baric"), facts["baric"])
    _compare(problems, "chains", report.get("chains"), facts["chains"])
    problems += _identity_problems(ev, report.get("identities", {}), facts)
    if not facts["baric"]:
        return problems
    _compare(problems, "weight_ok", report.get("weight_ok"), True)
    _compare(problems, "flags", report.get("flags"), facts["flags"])
    pz = dict(report.get("peirce", {}))
    e = oracle.coords(pz.pop("idempotent", []))
    if len(e) != ev.d or ev.mul(e, e) != e or ev.omega(e) != 1:
        problems.append("peirce idempotent is not an idempotent of weight 1")
    ann = pz.pop("ann_u_basis", [])
    _compare(problems, "peirce", pz, facts["peirce"])
    _compare(problems, "ann_u_basis rows", len(ann), facts["peirce"]["ann_u_dim"])
    half = oracle.Fraction(1, 2)
    for row in map(oracle.coords, ann):
        if ev.mul(e, row) != ev.scale(half, row) or ev.omega(row):
            problems.append("ann_u_basis row is not in U")
    for key, w in report.get("witnesses", {}).items():
        err = oracle.check_flag_witness(ev, key, w, e)
        if err:
            problems.append(err)
    for key in ("fixed_subspace", "mult_closure", "certificate"):
        _compare(problems, key, report.get(key), facts[key])
    return problems


class ReportItem:
    """`build_report` on one input file.

    `prepare()` parses the text and builds a fresh algebra, untimed, before
    every timed call, so that no pass reuses an object an earlier pass has
    already analysed (and filled any per-object memo of).
    """

    def __init__(self, api, text: str, meta: dict):
        self.name = meta["name"]
        self.text = text
        self.table = oracle.parse_alg(text)
        self.facts = oracle.closed_form(meta["kind"], meta["n"])
        self.api = api
        self.alg = None

    def prepare(self):
        self.alg = self.api.to_algebra(self.api.parse(self.text))

    def run(self):
        return self.api.build_report(self.name, self.alg)

    def is_known_fault(self, output) -> bool:
        return False

    def check(self, output) -> list:
        report, status = output
        problems = report_problems(report, self.table, self.facts)
        _compare(problems, "status", status, 0)
        return problems


# -- the CLI session --------------------------------------------------------

class CliItem:
    """One in-process `bernalg.cli.main(argv)` call, stdout/stderr captured."""

    def __init__(self, cli, argv, expect, checker=None, known_fault=None, name=None):
        self.cli = cli
        self.argv = argv
        self.name = name or " ".join(argv)
        self.expect = expect
        self.checker = checker
        # a fault of the program that makes this item fail on every run: the
        # text its message carries
        self.known_fault = known_fault

    def prepare(self):
        """Nothing: every call parses its files itself."""

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
        self.last = (code, out.getvalue(), err.getvalue())
        return self.last

    def check(self, output) -> list:
        code, out, err = output
        if code != self.expect:
            return [f"exit code {code}, README promises {self.expect}: {err.strip()[:200]}"]
        if self.checker is None:
            return []
        return self.checker(out, err)

    def is_known_fault(self, output) -> bool:
        return self.known_fault is not None and self.known_fault in output[2]


def _json_checker(fn):
    def check(out, err):
        try:
            payload = json.loads(out)
        except ValueError:
            return ["stdout is not JSON"]
        return fn(payload)
    return check


def _lines_checker(*patterns):
    """Every pattern must appear in stdout."""
    def check(out, err):
        return [f"missing output {p!r}" for p in patterns if p not in out]
    return check


def _flags_line(f):
    return ", ".join(f"{k}={f[k]}" for k in ("baric", "bernstein", "jordan", "nuclear",
                                             "barideal_nilpotent"))


class CliSession:
    """Builds the calls of the CLI session from the generated files."""

    def __init__(self, cli, inputs: str, manifest: list):
        self.cli = cli
        self.inputs = inputs
        self.items = []
        calls_for = {"bernstein": self._bernstein, "not_bernstein": self._not_bernstein,
                     "plain": self._plain}
        for meta in manifest:
            path = os.path.join(inputs, meta["file"])
            if meta["role"] == "malformed":
                self._malformed(path, meta)
                continue
            table = oracle.parse_alg(_read(path))
            calls_for[meta["role"]](path, table, oracle.closed_form(meta["kind"], meta["n"]), meta)
        self._misc(manifest)

    def add(self, argv, expect, checker=None, known_fault=None):
        name = " ".join(a.replace(self.inputs + os.sep, "") for a in argv)
        self.items.append(CliItem(self.cli, argv, expect, checker, known_fault, name))

    def _bernstein(self, path, table, facts, meta):
        ev = oracle.Evaluator(table)
        k = len([i for i in self.items if i.argv[0] == "check"])
        flip = k % 2 == 1
        self.add(["check", path, "--json"], 0,
                 _json_checker(lambda p: report_problems(p, table, facts)))
        self.add(["classify", path] + (["--json"] if flip else []), 0,
                 _json_checker(lambda p: self._classify(p, facts)) if flip
                 else _lines_checker(_flags_line(facts["flags"])))
        pz = facts["peirce"]
        self.add(["peirce", path, "--json"], 0,
                 _json_checker(lambda p: self._peirce(p, ev, pz)))
        self.add(["peirce", path], 0, _lines_checker(
            f"dim N = {pz['n_dim']}, dim U = {pz['u_dim']}, dim V = {pz['v_dim']}, "
            f"dim annU = {pz['ann_u_dim']}"))
        self._powers(path, facts, ["--barideal"], flip)
        fs = facts["fixed_subspace"]
        self.add(["fixedspace", path, "--json"], 0, _json_checker(lambda p: self._same(
            p, dict(fs, steps=len(fs["chain_dims"]) - 1, gfp_basis=[]))))
        self.add(["fixedspace", path], 0, _lines_checker(
            f"chain dims: {fs['chain_dims']}", f"greatest fixed subspace dim: {fs['gfp_dim']}"))
        mc = facts["mult_closure"]
        self.add(["multalg", path, "--json"], 0, _json_checker(lambda p: self._same(p, mc)))
        self.add(["multalg", path], 0, _lines_checker(
            f"generators: {mc['generator_count']}, closure dim: {mc['closure_dim']}",
            f"nilpotent: {mc['nilpotent']}, nil index: {mc['nil_index']}"))
        row = ",".join("1" if i == table.dim - 1 else "0" for i in range(table.dim))
        self.add(["stability", path, "--subspace", row] + (["--json"] if flip else []), 0,
                 _json_checker(self._stability) if flip
                 else _lines_checker("conclusion holds: True"))
        self.add(["decompose", path, "--json"], 0,
                 _json_checker(lambda p: self._same(p, facts["certificate"])))
        if not meta["dense"] and meta["kind"] in ("bdown", "bup"):
            n = meta["n"]
            gens = f"v1,u{n}" if meta["kind"] == "bdown" else "v2,u1"
            self.add(["decompose", path, "--gens", gens], 0,
                     self._literal_checker("certificate: ", facts["certificate"]))
        self.add(["quotient", path, "--by", "annU"] + (["--json"] if flip else []), 0,
                 lambda out, err: self._quotient(out, table.dim - pz["ann_u_dim"]))

    def _not_bernstein(self, path, table, facts, meta):
        ev = oracle.Evaluator(table)
        fault = "barideal does not split"

        def not_bernstein(flags, witnesses, identities):
            problems = _identity_problems(ev, identities, {})
            _compare(problems, "bernstein", flags.get("bernstein"), False)
            w = witnesses.get("bernstein")
            err = oracle.check_flag_witness(ev, "bernstein", w, None) if w else "no witness"
            return problems + ([err] if err else [])

        self.add(["check", path, "--json"], 1, _json_checker(lambda p: not_bernstein(
            p.get("flags", {}), p.get("witnesses", {}), p.get("identities", {}))))
        self.add(["check", path], 1, _lines_checker("identity bernstein: FAILS"))
        self.add(["classify", path, "--json"], 1, _json_checker(
            lambda p: not_bernstein(p, p.get("witnesses", {}), {})))
        self.add(["classify", path], 1, _lines_checker("bernstein=False"))
        for cmd in (["peirce"], ["fixedspace"], ["multalg"],
                    ["stability", "--subspace", ",".join(["0"] * table.dim)],
                    ["quotient", "--by", "annU"]):
            for mode in ([], ["--json"]):
                self.add([cmd[0], path] + cmd[1:] + mode, 1, None, fault)
        # the barideal itself is the one of bdown/bup, so its chain is too
        self._powers(path, facts, ["--barideal"], False, kinds=("principal",))
        self.add(["decompose", path, "--json"], 0,
                 _json_checker(lambda p: self._same(p, facts["certificate"])))

    def _plain(self, path, table, facts, meta):
        self.add(["check", path, "--json"], 0,
                 _json_checker(lambda p: report_problems(p, table, facts)))
        self.add(["check", path], 0, self._literal_checker("chains: ", facts["chains"]))
        self.add(["classify", path, "--json"], 0, _json_checker(
            lambda p: self._same(p, {"algebra": table.name, "baric": False})))
        self._powers(path, facts, [], meta["dense"])
        self.add(["decompose", path, "--json"], 0,
                 _json_checker(lambda p: self._same(p, facts["certificate"])))
        self.add(["decompose", path], 0,
                 self._literal_checker("certificate: ", facts["certificate"]))

    def _powers(self, path, facts, extra, flip, kinds=("full", "principal", "plenary")):
        for i, kind in enumerate(kinds):
            dims = facts[f"{kind}_dims"]
            if (i % 2 == 0) != flip:
                self.add(["powers", path, "--kind", kind, "--json"] + extra, 0,
                         _json_checker(lambda p, dims=dims, kind=kind: self._chain(p, kind, dims)))
            else:
                self.add(["powers", path, "--kind", kind] + extra, 0, _lines_checker(
                    f"{kind} chain dims: {dims}",
                    f"stabilized: True, nil index: {len(dims)}"))

    def _malformed(self, path, meta):
        where = f"error: line {meta['error_line']}, column "
        for argv in (["check", path, "--json"], ["classify", path]):
            self.add(argv, 2, lambda out, err: [] if err.startswith(where) and not out
                     else [f"parse error not reported at {where!r}: {err.strip()!r}"])

    def _misc(self, manifest):
        first = next(m for m in manifest if m.get("role") == "bernstein")
        path = os.path.join(self.inputs, first["file"])
        # one repeated call: the output must be byte-identical
        self.add(["check", path, "--json"], 0, self._same_as(["check", path, "--json"]))
        missing = os.path.join(self.inputs, "no_such_file.alg")
        self.add(["check", missing], 2)
        self.add(["powers", path], 2)  # --kind is required
        self.add(["stability", path, "--subspace", "1,0"], 2)
        for kind, n in (("bdown", 3), ("zhevlakov", 4), ("squareshift", 5), ("jordan3", None)):
            text = gen.serialize(gen.family(kind, n))
            argv = ["family", kind] + (["--n", str(n)] if n else [])
            self.add(argv + (["--json"] if kind == "bdown" else []), 0,
                     lambda out, err, text=text: [] if out == text
                     else ["family output differs from the family definition"])
        out_path = os.path.join(self.inputs, "family_out.alg")
        text = gen.serialize(gen.family("bup", 3))
        self.add(["family", "bup", "--n", "3", "--out", out_path], 0,
                 lambda out, err: [] if _read(out_path) == text
                 else ["family --out wrote other text"])

    # -- output checks --------------------------------------------------

    @staticmethod
    def _same(payload, want):
        return [] if payload == want else [f"got {payload!r}, want {want!r}"]

    def _same_as(self, argv):
        earlier = next(i for i in self.items if i.argv == argv)

        def check(out, err):
            return [] if out == earlier.last[1] else ["repeated check --json output differs"]
        return check

    @staticmethod
    def _literal_checker(prefix, want):
        def check(out, err):
            for line in out.splitlines():
                line = line.strip()
                if line.startswith(prefix):
                    got = ast.literal_eval(line[len(prefix):])
                    return [] if got == want else [f"{prefix}{got!r}, want {want!r}"]
            return [f"no line starting {prefix!r}"]
        return check

    @staticmethod
    def _classify(p, facts):
        """The flags only: the nuclear and Jordan witnesses depend on the
        idempotent the program picks, which `classify` does not report;
        `check --json` reports it, and its witnesses are re-evaluated there."""
        problems = []
        _compare(problems, "flags", {k: p.get(k) for k in facts["flags"]}, facts["flags"])
        return problems

    @staticmethod
    def _peirce(p, ev, pz):
        problems = []
        for key in ("n_dim", "u_dim", "v_dim"):
            _compare(problems, key, p.get(key), pz[key])
        _compare(problems, "ann_u rows", len(p.get("ann_u_basis", [])), pz["ann_u_dim"])
        e = oracle.coords(p["idempotent"])
        if ev.mul(e, e) != e or ev.omega(e) != 1:
            problems.append("idempotent is not an idempotent of weight 1")
        half = oracle.Fraction(1, 2)
        for key, factor in (("u_basis", half), ("v_basis", 0), ("ann_u_basis", half)):
            for row in map(oracle.coords, p.get(key, [])):
                if ev.mul(e, row) != ev.scale(factor, row) or ev.omega(row):
                    problems.append(f"{key} row is not an eigenvector of e in N")
        u_rows = [oracle.coords(r) for r in p.get("u_basis", [])]
        for row in map(oracle.coords, p.get("ann_u_basis", [])):
            if any(any(ev.mul(row, u)) for u in u_rows):
                problems.append("ann_u_basis row does not annihilate U")
        return problems

    @staticmethod
    def _chain(p, kind, dims):
        problems = []
        _compare(problems, f"{kind} term_dims", p.get("term_dims"), dims)
        _compare(problems, "nil_index", p.get("nil_index"), len(dims))
        _compare(problems, "stabilized", p.get("stabilized"), True)
        _compare(problems, "term rows", [len(t) for t in p.get("terms", [])], dims)
        return problems

    @staticmethod
    def _stability(p):
        problems = []
        _compare(problems, "subspace_dim", p.get("subspace_dim"), 1)
        _compare(problems, "conclusion_holds", p.get("conclusion_holds"), True)
        if p.get("ni_eq_i") != p.get("vi_eq_i"):
            problems.append("N*I = I and V*I = I disagree")
        return problems

    @staticmethod
    def _quotient(out, dim):
        try:
            q = oracle.parse_alg(out)
        except (ValueError, IndexError, KeyError):
            return ["quotient output does not parse"]
        problems = []
        _compare(problems, "quotient dim", q.dim, dim)
        if q.weight is None:
            return problems + ["quotient is not baric"]
        if not oracle.Evaluator(q).probe("bernstein", PROBE_SEED):
            problems.append("quotient fails the Bernstein identity")
        return problems


def _read(path):
    """The text of a file, or None when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def build_items(workload: str, inputs: str, manifest: list) -> list:
    """Set up the items of a workload; parses the input files with bernalg."""
    import bernalg
    import bernalg.cli
    if workload == "cli_session":
        return CliSession(bernalg.cli, inputs, manifest).items
    return [ReportItem(bernalg, _read(os.path.join(inputs, m["file"])), m) for m in manifest]
