"""Fast tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import json
import os
import random
import re
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import gen, oracle, run, trace, worker, workloads  # noqa: E402

F = Fraction


def _matmul(a, b):
    return [[sum((F(a[i][k]) * b[k][j] for k in range(len(b))), F(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_generator_matrix_is_invertible_with_entries_in_range():
    for seed in range(20):
        rng = random.Random(seed)
        p, q = gen.random_invertible(6, rng)
        assert all(-2 <= x <= 2 for row in p for x in row)
        eye = [[F(int(i == j)) for j in range(6)] for i in range(6)]
        assert _matmul(p, q) == eye
        assert _matmul(q, p) == eye


def test_singular_matrix_has_no_inverse():
    assert gen.inverse([[1, 2], [2, 4]]) is None


def test_dense_copy_maps_the_weight_and_the_products():
    src = gen.family("bdown", 3)
    rng = random.Random("test")
    p, q = gen.random_invertible(src.dim, rng, src.weight)
    dense = gen.change_basis(src, p, q, "d")
    old, new = oracle.Evaluator(src), oracle.Evaluator(dense)
    unit = [tuple(F(int(i == k)) for i in range(src.dim)) for k in range(src.dim)]

    def to_old(y):  # new coordinates y are the old vector y P
        return tuple(sum((y[i] * p[i][k] for i in range(src.dim)), F(0))
                     for k in range(src.dim))

    for i in range(src.dim):
        assert dense.weight[i] == sum(F(p[i][j]) * src.weight[j] for j in range(src.dim))
        assert dense.weight[i] != 0
        for j in range(src.dim):
            assert to_old(new.mul(unit[i], unit[j])) == old.mul(to_old(unit[i]),
                                                                to_old(unit[j]))


def test_dense_copy_has_every_pair_product_nonzero():
    for kind in ("bdown", "bup"):
        t = gen.dense_copy(gen.family(kind, 3), random.Random(kind))
        assert len(t.products) == t.dim * (t.dim + 1) // 2


def test_evaluator_agrees_with_products_worked_by_hand():
    bdown2 = oracle.Evaluator(gen.family("bdown", 2))   # basis e v1 u1 u2
    # (e + u2)(v1 + u2) = e v1 + e u2 + u2 v1 + u2 u2 = 1/2 u2 + u1
    x = bdown2.vec([1, 0, 0, 1])
    y = bdown2.vec([0, 1, 0, 1])
    assert bdown2.mul(x, y) == bdown2.vec([0, 0, 1, F(1, 2)])
    # x = e + u1: x^2 = e + u1, (x^2)^2 = e + u1 = w(x)^2 x^2
    assert not any(bdown2.defect("bernstein", {"x": bdown2.vec([1, 0, 1, 0])}))
    sq3 = oracle.Evaluator(gen.family("squareshift", 3))  # e_k^2 = e_(k-1)
    assert sq3.mul(sq3.vec([0, 1, 1]), sq3.vec([0, 1, 1])) == sq3.vec([1, 1, 0])
    assert sq3.defect("square_square_zero", {"x": sq3.vec([0, 0, 1])}) == sq3.vec([1, 0, 0])


def test_parse_reads_back_what_gen_writes():
    t = gen.dense_copy(gen.family("bup", 3), random.Random(3))
    back = oracle.parse_alg(gen.serialize(t))
    assert (back.name, back.basis, back.products, back.weight) == \
        (t.name, t.basis, t.products, t.weight)


def test_closed_form_full_chain_matches_the_readme_example():
    # README: for squareshift(3), N^3 = N^4 = <e1> and N^5 = 0
    assert oracle.full_chain_dims(3) == [3, 2, 1, 1, 0]
    assert len(oracle.full_chain_dims(9)) == 2 ** 8 + 1


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_result(trace_on):
    """A real run of two small report items, as the worker records it."""
    import bernalg
    items = [workloads.ReportItem(bernalg, gen.serialize(gen.family(kind, n)),
                                  {"kind": kind, "n": n, "name": f"{kind}{n}"})
             for kind, n in (("bdown", 2), ("squareshift", 3))]
    runner = worker.Runner(items, 30.0, time.perf_counter())
    result = {"items": [i.name for i in items], "passes": [], "peak_rss_kb": 20000}
    tracer = trace.Tracer() if trace_on else None
    if tracer:
        tracer.install()
    try:
        record = runner.run_pass(start=tracer.reset_pass if tracer else None,
                                 before=tracer.begin_item if tracer else None)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        record["layers"] = tracer.pass_metrics()
        counter = trace.FractionCounter()
        runner.run_pass(around=counter)
        result["fraction_counts"] = counter.metrics()
    result["passes"].append(record)
    assert record["failed"] == 0 and not runner.unexpected
    return result


def test_every_metric_in_benchmark_json_is_emitted_with_a_valid_name():
    spec = _benchmark_json()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    e2e = run.end_to_end(_tiny_result(False), 0.05)
    layers = run.per_layer(_tiny_result(True))
    for section, emitted in (("end_to_end", e2e), ("per_layer", layers)):
        names = [m["name"] for m in spec[section]]
        assert sorted(names) == sorted(emitted), section
        for m in spec[section]:
            assert name_re.match(m["name"]) and unit_re.match(m["unit"])
            assert emitted[m["name"]]["unit"] == m["unit"]
            assert isinstance(emitted[m["name"]]["value"], (int, float))
    assert all(e2e[m]["value"] > 0 for m in e2e)
    assert layers["fields.eq.calls"]["value"] > 0
    assert layers["algebra.mul_coords.calls"]["value"] > 0


def test_tracing_leaves_bernalg_as_it_was():
    import bernalg
    from bernalg import linalg, report
    before = (bernalg.build_report, report.check_identity, linalg.Subspace.plus,
              linalg.Subspace.__init__, Fraction.__eq__)
    _tiny_result(True)
    assert before == (bernalg.build_report, report.check_identity, linalg.Subspace.plus,
                      linalg.Subspace.__init__, Fraction.__eq__)
