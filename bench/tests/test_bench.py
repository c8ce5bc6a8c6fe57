"""Tests of the benchmark itself: the query generator, the answer checks and
the tracer's self-time arithmetic.  Run with `python3 -m pytest -q bench/tests`."""
import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import queries  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from permclass import algebra, exprs, harness  # noqa: E402


def test_query_stream_is_deterministic_per_seed_and_varies_across_seeds():
    assert queries.generate(7) == queries.generate(7)
    assert queries.generate(7) != queries.generate(8)
    # The seed changes permutations and order, not how often each item is asked.
    kinds = lambda qs: sorted((q.kind, q.argv[2]) for q in qs)  # noqa: E731
    assert kinds(queries.generate(7)) == kinds(queries.generate(8))


def _answer(query):
    return workloads._cli_op(query).run()


def _first(kind, cls=None, code=None):
    for q in queries.generate(3):
        if q.kind == kind and (cls is None or q.argv[2] == cls) and (code is None or q.code == code):
            return q
    raise LookupError(kind)


def _corrupt(query, mutate):
    code, out = _answer(query)
    payload = json.loads(out)
    mutate(payload)
    return code, json.dumps(payload)


def test_checker_accepts_right_answers_and_flags_corrupted_ones():
    corruptions = [
        (_first("member"), lambda d: d.update(member=not d["member"])),
        (_first("count"), lambda d: d["counts"].__setitem__(-1, d["counts"][-1] + 1)),
        (_first("enumerate"), lambda d: d["members"].pop()),
        (_first("enumerate", "Vk(2)"), lambda d: d["members"].__setitem__(-1, d["members"][0])),
        (_first("include", code=1), lambda d: d["results"].update({"5": {"status": "holds"}})),
        (_first("basis"), lambda d: d["basis"].append([1, 2])),
        (_first("decompose", "vkhk"), lambda d: d["factors"].reverse()),
        (_first("decompose", "ikil"), lambda d: d["factors"][0].update(perm=sorted(d["target"], reverse=True))),
    ]
    for query, mutate in corruptions:
        assert queries.check(query, *_answer(query)) is None, query
        assert queries.check(query, *_corrupt(query, mutate)) is not None, query
    member = _first("member")
    assert queries.check(member, 2, _answer(member)[1]) is not None


def test_registry_and_search_checks_flag_corrupted_results():
    op = next(op for op in workloads.prepare("registry-suite", 0) if op.label == "lemma-L2-group")
    results = op.run()
    assert op.check(results) is None
    assert op.check([dataclasses.replace(results[0], status="fail")]) is not None

    report = harness.search_m(2, 2, 5)
    search = workloads._product_search()[0]
    assert search.check(report) is not None  # expected orders run to 8
    report = harness.search_m(2, 2, 8)
    assert search.check(report) is None
    report.per_m[4].results[8] = harness.Verdict("fails", witness=report.per_m[4].results[8].witness)
    assert search.check(report) is not None


def test_registry_guard_rejects_a_changed_registry():
    names = list(workloads.expected_records(harness.REGISTRY))
    assert "search-m-2-2" not in names and len(names) == len(harness.REGISTRY) - 1
    renamed = {("renamed" if n == "count-F2" else n): f for n, f in harness.REGISTRY.items()}
    for registry in (renamed, {**harness.REGISTRY, "new-check": None}):
        try:
            workloads.expected_records(registry)
        except RuntimeError:
            continue
        raise AssertionError("a changed registry was accepted")


def test_self_time_on_a_synthetic_nested_trace():
    ticks = iter([0, 1, 3, 4, 5, 6, 8, 10])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("a")            # 0
    tracer.enter("b")            # 1
    tracer.exit()                # 3: b lasts 2
    tracer.enter("c", keep=False)  # 4
    tracer.enter("d")            # 5
    tracer.exit()                # 6: d lasts 1
    tracer.exit()                # 8: c lasts 4, 1 of it in d
    tracer.exit()                # 10: a lasts 10, 6 of it in b and c
    assert dict(tracer.self_s) == {"a": 4, "b": 2, "c": 3, "d": 1}
    spans = {name: (span_id, parent, self_s) for span_id, parent, name, _, _, self_s in tracer.spans}
    assert set(spans) == {"a", "b", "d"}  # c is aggregated only
    assert spans["a"][1] == 0 and spans["b"][1] == spans["a"][0]
    assert spans["d"][1] == spans["a"][0]  # nearest kept ancestor
    assert spans["d"][2] == 1


def test_traced_slice_lookups_count_first_use_as_the_miss():
    tracer, stats = tracing.Tracer(), tracing.SliceStats()
    original = algebra.class_slice
    restore = tracing.install(tracer, stats)
    assert harness.class_slice is algebra.class_slice is not original
    try:
        cache = algebra.SliceCache()
        expr = exprs.parse_class("comp(Ik(2),Ik(2))")
        for _ in range(3):
            algebra.class_slice(expr, 4, algebra.DEFAULT_CONFIG, cache)
    finally:
        restore()
    assert harness.class_slice is algebra.class_slice is original
    metrics = tracing.layer_metrics(tracer, stats)
    assert metrics["algebra.slice.misses"] == 2  # the product and Ik(2), once each
    assert metrics["algebra.slice.hits"] == 3  # two repeats, and Ik(2) as its own right factor
    assert metrics["algebra.product.pairs"] == 14 * 14
    assert metrics["algebra.product.yield"] == 24 / (14 * 14)
    assert metrics["perms.all_perms.yielded"] == 24
    assert metrics["algebra.enum.yield"] == 14 / 24
