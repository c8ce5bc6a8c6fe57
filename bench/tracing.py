"""Out-of-process layer tracing for the benchmark's traced pass.

`install()` replaces public permclass functions with wrappers that open a span
around each call, in every permclass module namespace that binds the function,
so a call is traced whichever module it goes through.  Nothing under src/
changes.

Every wrapped call takes part in self-time accounting: a span's self time is
its duration minus the time its child spans cover.  Because the workload runs
on one thread, child spans never overlap, so that cover is the sum of the
children's durations.  Span records (id, parent id, name, start, end, self
time) are kept in memory for the layer boundaries and written once, when the
traced pass ends.  Per-permutation primitives run millions of times per pass,
so they are only counted and timed in aggregate; a kept span's parent is its
nearest kept ancestor.
"""
from __future__ import annotations

import itertools
import json
import time
import weakref
from collections import Counter, defaultdict

MODULES = ("perms", "exprs", "algebra", "structure", "factor", "harness", "cli")

# (module, public function, metric prefix, keep span records)
TIMED = (
    ("perms", "contains", "perms.contains", False),
    ("perms", "lds", "perms.lds", False),
    ("perms", "compose", "perms.compose", False),
    ("exprs", "parse_class", "exprs.parse", True),
    ("exprs", "canonical_render", "exprs.canonical_render", False),
    ("algebra", "member", "algebra.member", False),
    ("algebra", "member_independent", "algebra.member_independent", True),
    ("structure", "merge_split", "structure.merge_split", True),
    ("structure", "vertical_split", "structure.vertical_split", True),
    ("structure", "horizontal_split", "structure.horizontal_split", True),
    ("structure", "jv_split", "structure.jv_split", True),
    ("structure", "min_blocks", "structure.min_blocks", True),
    ("factor", "decompose_vk_hk", "factor.decompose", True),
    ("factor", "decompose_ik_il", "factor.decompose", True),
    ("factor", "decompose_l4", "factor.decompose", True),
    ("factor", "decompose_thm52", "factor.decompose", True),
    ("harness", "check_inclusion", "harness.check_inclusion", True),
    ("cli", "cli_dispatch", "cli.dispatch", True),
)
SLICE = "algebra.class_slice"
SLICE_BUILD = "algebra.class_slice.build"
VERIFY = "factor.verify"


class Tracer:
    """Spans with parent ids, plus per-name call counts and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # Open frames: [span id, name, start, child time, nearest kept span id, keep].
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    def enter(self, name: str, keep: bool = True) -> None:
        span_id = next(self._ids)
        kept_parent = self._stack[-1][4] if self._stack else 0
        self._stack.append([span_id, name, self.clock(), 0.0, span_id if keep else kept_parent, keep])

    def exit(self) -> float:
        """Close the innermost span and return its duration."""
        span_id, name, start, child, _, keep = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        kept_parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            kept_parent = self._stack[-1][4]
        if keep:
            self.spans.append((span_id, kept_parent, name, start, end, duration - child))
        return duration

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")


class SliceStats:
    """Slice-cache accounting seen from outside `class_slice`.

    A miss is the first successful call for a (cache, canonical rendering,
    order) key; every later call for that key is a hit.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.build_s = 0.0  # time inside at least one building class_slice call
        self.built_members = 0
        self.enum_candidates = 0  # S_n candidates drawn by builds that filter
        self.enum_members = 0  # members kept by those builds
        self.product_pairs = 0
        self.product_members = 0
        self.product_build_s = 0.0
        self.constructs = 0
        self.yielded = 0
        self.sizes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.builds: list[list[int]] = []  # open builds: [S_n candidates drawn]
        self.global_cache = None

    def resident_perms(self) -> int:
        """Members held by the process-wide slice cache, which never evicts."""
        return sum(self.sizes.get(self.global_cache, {}).values())


def install(tracer: Tracer, stats: SliceStats):
    """Wrap the traced functions in every permclass namespace; returns an undo callable."""
    import importlib

    modules = {name: importlib.import_module(f"permclass.{name}") for name in MODULES}
    namespaces = [importlib.import_module("permclass"), *modules.values()]
    perms, exprs, algebra, factor = (modules[m] for m in ("perms", "exprs", "algebra", "factor"))
    render = exprs.canonical_render  # the unwrapped one: cache keys are not traced calls
    undo: list = []

    def rebind(orig, wrapper):
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))

    for mod_name, attr, metric, keep in TIMED:
        orig = getattr(modules[mod_name], attr)
        rebind(orig, _timed(tracer, orig, metric, keep))

    global_cache = stats.global_cache = algebra.slice_cache()
    orig_slice = algebra.class_slice

    def class_slice(expr, n, *args, **kwargs):
        cache = args[1] if len(args) > 1 else kwargs.get("cache")
        store = global_cache if cache is None else cache
        key = (render(expr), n)
        sizes = stats.sizes.setdefault(store, {})
        miss = key not in sizes
        tracer.enter(SLICE_BUILD if miss else SLICE, keep=miss)
        if miss:
            stats.builds.append([0])
        try:
            result = orig_slice(expr, n, *args, **kwargs)
        except BaseException:
            tracer.exit()
            if miss:
                stats.builds.pop()
            raise
        if not miss:
            tracer.exit()
            stats.hits += 1
            return result
        candidates = stats.builds.pop()[0]
        self_before = tracer.self_s[SLICE_BUILD]
        duration = tracer.exit()
        size = len(result)
        sizes[key] = size
        stats.misses += 1
        stats.built_members += size
        if not stats.builds:
            stats.build_s += duration
        if candidates:
            stats.enum_candidates += candidates
            stats.enum_members += size
        if isinstance(expr, exprs.Comp):
            pairs = 1
            for child in expr.children:
                pairs *= sizes.get((render(child), n), 0)
            stats.product_pairs += pairs
            stats.product_members += size
            stats.product_build_s += tracer.self_s[SLICE_BUILD] - self_before
        return result

    rebind(orig_slice, class_slice)

    orig_all_perms = perms.all_perms

    def all_perms(n):
        build = stats.builds[-1] if stats.builds else None
        for p in orig_all_perms(n):
            stats.yielded += 1
            if build is not None:
                build[0] += 1
            yield p

    rebind(orig_all_perms, all_perms)

    cls = perms.Permutation
    orig_init = cls.__init__

    def init(self, values):
        stats.constructs += 1
        orig_init(self, values)

    cls.__init__ = init
    undo.append((cls, "__init__", orig_init))

    fact = factor.Factorization
    orig_verify = fact.verify
    fact.verify = _timed(tracer, orig_verify, VERIFY, True)
    undo.append((fact, "verify", orig_verify))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def _timed(tracer: Tracer, fn, name: str, keep: bool):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(name, keep)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def layer_metrics(tracer: Tracer, stats: SliceStats) -> dict[str, float]:
    """Per-layer metric values of one traced pass, by metric name."""
    calls, self_s = tracer.calls, tracer.self_s
    lookups = stats.hits + stats.misses
    out = {
        "perms.construct.calls": stats.constructs,
        "perms.all_perms.yielded": stats.yielded,
        "algebra.enum.yield": _ratio(stats.enum_members, stats.enum_candidates),
        "algebra.slice.hits": stats.hits,
        "algebra.slice.misses": stats.misses,
        "algebra.slice.hit_ratio": _ratio(stats.hits, lookups),
        "algebra.slice.build_s": stats.build_s,
        "algebra.slice.built_members": stats.built_members,
        "algebra.slice.resident_perms": stats.resident_perms(),
        "algebra.product.pairs": stats.product_pairs,
        "algebra.product.build_s": stats.product_build_s,
        "algebra.product.yield": _ratio(stats.product_members, stats.product_pairs),
        "factor.verify.self_s": self_s[VERIFY],
    }
    for name in sorted({metric for _, _, metric, _ in TIMED}):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
