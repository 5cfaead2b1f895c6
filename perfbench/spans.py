"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions of the five syzstab modules at
module level (every module that imported a name gets the wrapper), counts
``Monomial`` constructions, and records one span per call in memory: name,
start, end and the span that was open when the call began, timed on the
clock it is given.  ``uninstall`` puts every original back.  Nothing in the
program's source changes.

Self time of a span is its duration minus its direct children's; a layer's
self time is the sum over its spans.  The layers' self times plus
``unattributed_s`` (the benchmark's own code inside each op's timing,
around the top-level calls) add up exactly to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import tracemalloc
from array import array
from collections import defaultdict
from math import comb

LAYERS = ("monomials", "criterion", "constructions", "inequalities", "cli")
ROUTES = {
    "gen_p1": "P1Family",
    "gen_n2_search": "N2Search",
    "gen_225_semistable": "Search225",
    "gen_case326": "Case326",
    "gen_face_vertex": "FaceVertex",
    "gen_prop_faces": "PropFaces",
    "gen_full": "FullSet",
    "gen_faces_and_dots": "FacesAndDots",
    "gen_brenner": "BrennerRecursion",
}
FAMILY_CLASSMETHODS = ("from_text", "from_monomials", "from_exponents")
# the per-cell function of `syzstab sweep`, which the sweep workload calls
PRIVATE_ENTRY_POINTS = ("cli._sweep_cell",)


def _candidates(N: int, d: int) -> int:
    """Gcd candidates of degree 1..d-1 that one scan_witnesses call enumerates."""
    return sum(comb(e + N, N) for e in range(1, d))


class Tracer:
    def __init__(self, prog):
        self.prog = prog
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    # -- installing the wrappers -------------------------------------------------

    def _wrap(self, name, fn, post=None, materialize=False):
        """A stand-in for fn that records a span around each call."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        if isinstance(fn, functools._lru_cache_wrapper):
            cached, hits = fn, name + ".cache_hits"

            def fn(*args, **kwargs):
                # a hit returns without a miss being recorded
                misses = cached.cache_info().misses
                result = cached(*args, **kwargs)
                if cached.cache_info().misses == misses:
                    tracer.counts[hits] += 1
                return result

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            clock = tracer.clock
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    # callers consume the whole generator anyway; running it
                    # inside the span keeps the time where the work happens
                    result = list(result)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if post is not None:
                post(args, result)
            return iter(result) if materialize else result

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        # vars() keeps a classmethod as the descriptor, so it is restored as one
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, clock) -> None:
        """Wrap the program; spans are timed with clock()."""
        self.clock = clock
        prog = self.prog
        posts = {
            "criterion.scan_witnesses": self._count_scan,
            "criterion.brute_force_check": self._count_oracle,
            "inequalities.audit": self._count_audit,
        }
        replaced = {}
        for layer in LAYERS:
            module = getattr(prog, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_") and f"{layer}.{attr}" not in PRIVATE_ENTRY_POINTS:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
                    continue
                name = f"{layer}.{attr}"
                generator = inspect.isgeneratorfunction(obj)
                if generator and name != "criterion.scan_witnesses":
                    continue  # a lazy span would not nest; its time stays with the caller
                replaced[id(obj)] = (obj, self._wrap(name, obj, posts.get(name), generator))
        modules = [prog.pkg] + [getattr(prog, layer) for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._patch(module, attr, replaced[id(obj)][1])

        family = prog.monomials.MonomialFamily
        for attr in FAMILY_CLASSMETHODS:
            original = family.__dict__[attr].__func__
            self._patch(family, attr, classmethod(self._wrap(f"monomials.MonomialFamily.{attr}", original)))

        monomial = prog.monomials.Monomial
        post_init = monomial.__post_init__
        tracer = self

        def counted_post_init(m):
            tracer.counts["monomials.monomial_new"] += 1
            post_init(m)

        self._patch(monomial, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counts computed from call arguments and results ------------------------

    def _count_scan(self, args, witnesses) -> None:
        members, d = args[0], args[1]
        candidates = _candidates(members[0].num_vars - 1, d) if members else 0
        self.counts["criterion.scan_candidates"] += candidates
        self.counts["criterion.scan_member_tests"] += candidates * len(members)
        self.counts["criterion.scan_witnesses"] += len(witnesses)

    def _count_oracle(self, args, cert) -> None:
        n = len(args[0])
        self.counts["criterion.oracle_subsets"] += (1 << n) - n - 1

    def _count_audit(self, args, result) -> None:
        self.counts["inequalities.audit_points"] += result[1].count

    # -- turning one pass's spans into metrics ---------------------------------

    def metrics(self, wall: float) -> dict[str, float]:
        names, parent = self.names, self.parent
        span_name = self.name
        n = len(span_name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        checks_below = [0] * n
        check_id = self._ids.get("criterion.check_family", -2)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                if span_name[i] == check_id:
                    checks_below[p] += 1
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        own = defaultdict(float)
        certify = roots = 0.0
        greedy = fallback = 0
        for i in range(n):
            name = names[span_name[i]]
            calls[name] += 1
            inclusive[name] += dur[i]
            own[name] += dur[i] - child[i]
            p = parent[i]
            if p < 0:
                roots += dur[i]
            elif name == "criterion.check_family" and names[span_name[p]] == "constructions.dispatch":
                certify += dur[i]
            if name == "constructions.gen_n2_search":
                greedy += checks_below[i] == 1
                fallback += checks_below[i] > 1

        counts = self.counts
        candidates = counts["criterion.scan_candidates"]
        out = {
            "monomials.parse_s": inclusive["monomials.MonomialFamily.from_text"],
            "monomials.monomial_new": counts["monomials.monomial_new"],
            "monomials.enumerate_calls": calls["monomials.enumerate_monomials"],
            "monomials.enumerate_s": inclusive["monomials.enumerate_monomials"],
            "criterion.scan_calls": calls["criterion.scan_witnesses"],
            "criterion.scan_s": inclusive["criterion.scan_witnesses"],
            "criterion.scan_candidates": candidates,
            "criterion.scan_member_tests": counts["criterion.scan_member_tests"],
            "criterion.scan_witnesses": counts["criterion.scan_witnesses"],
            "criterion.scan_yield": counts["criterion.scan_witnesses"] / candidates if candidates else 0.0,
            "criterion.check_calls": calls["criterion.check_family"],
            "criterion.check_s": inclusive["criterion.check_family"],
            "criterion.check_cache_hits": counts["criterion.check_family.cache_hits"],
            "criterion.oracle_calls": calls["criterion.brute_force_check"],
            "criterion.oracle_s": inclusive["criterion.brute_force_check"],
            "criterion.oracle_subsets": counts["criterion.oracle_subsets"],
            "constructions.dispatch_calls": calls["constructions.dispatch"],
            "constructions.dispatch_cache_hits": counts["constructions.dispatch.cache_hits"],
        }
        for gen, route in ROUTES.items():
            out[f"constructions.route.{route}.cells"] = calls[f"constructions.{gen}"]
            out[f"constructions.route.{route}.self_s"] = own[f"constructions.{gen}"]
        out["constructions.certify_s"] = certify
        out["constructions.n2_greedy_certified"] = greedy
        out["constructions.n2_fallback"] = fallback
        out["inequalities.audit_points"] = counts["inequalities.audit_points"]
        out["inequalities.audit_s"] = inclusive["inequalities.audit"]
        layer_self = defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.split(".", 1)[0]] += seconds
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_s"] = layer_self[layer]
        # cli work outside the library calls it makes, e.g. building sweep rows
        out["cli.overhead_s"] = layer_self["cli"]
        out["unattributed_s"] = wall - roots
        out["traced_wall_s"] = wall
        return out

    def write(self, path, passes) -> None:
        """Write the spans of every traced pass as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\tspan\tparent\tname\tstart\tend\n")
            for k, (names, span_name, parent, start, end) in enumerate(passes):
                for i in range(len(span_name)):
                    fh.write(f"{k}\t{i}\t{parent[i]}\t{names[span_name[i]]}\t{start[i]!r}\t{end[i]!r}\n")

    def snapshot(self):
        return (self.names, self.name, self.parent, self.start, self.end)


def oracle_peak_mb(prog, family) -> float:
    """Peak Python allocation, in MiB, of one brute_force_check on family."""
    tracemalloc.start()
    try:
        prog.criterion.brute_force_check(family)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
