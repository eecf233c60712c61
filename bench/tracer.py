"""Per-layer spans and counters, measured from outside symp.

``Tracer.install`` replaces public functions of the symp modules by timing
wrappers.  It patches the attribute in every symp module that holds the
function, so a call from one module into another (``linstat`` calling
``moments.moment_usp``, ``ffield.empirical_moment`` calling
``ffield.symbols_batch``) becomes a child span.  A span's self time is its
duration minus the time of its child spans; a layer's self time is the sum
over its spans.  ``Tracer.remove`` restores the originals.

Counters whose closed form is known double as checks: a mismatch is added to
``problems`` and fails the op that caused it.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter, defaultdict
from time import perf_counter

from workloads import gauss_count


class _Stats:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls, self.s, self.self_s = 0, 0.0, 0.0


class _CountingItertools:
    """Stand-in for ``itertools`` in linstat's namespace that counts the
    multisets the exact expansion enumerates."""

    def __init__(self, counts: Counter):
        self._counts = counts

    def __getattr__(self, name):
        return getattr(itertools, name)

    def combinations_with_replacement(self, iterable, r):
        for item in itertools.combinations_with_replacement(iterable, r):
            self._counts["linstat.exact.multisets"] += 1
            yield item


class Tracer:
    def __init__(self, sym):
        self.sym = sym
        self.stats: dict[str, _Stats] = defaultdict(_Stats)
        self.layer_self: Counter = Counter()
        self.counts: Counter = Counter()
        self.mc_by_n: dict[int, list[float]] = defaultdict(lambda: [0, 0.0])
        self.mc_stat_s = 0.0
        self.problems: list[str] = []
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._seen = weakref.WeakKeyDictionary()  # PrimeField -> set of keys already counted
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, layer: str, fn, args, kwargs, after=None):
        frame = [0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self._depth[name] -= 1
            if self._stack:
                self._stack[-1][0] += duration
            st = self.stats[name]
            st.calls += 1
            st.self_s += duration - frame[0]
            if not self._depth[name]:
                st.s += duration
            self.layer_self[layer] += duration - frame[0]
        if after is not None:
            after(result, duration, *args, **kwargs)
        return result

    def _first_time(self, field, key) -> bool:
        seen = self._seen.setdefault(field, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    # -- hooks run after a traced call returns -----------------------------

    def _after_quadrature(self, result, duration, n, a, cfg=None):
        nodes = cfg.nodes_per_dim if cfg is not None else self.sym.haar.default_nodes(n, a)
        self.counts["haar.quadrature.grid_points"] += nodes**n

    def _after_primes(self, result, duration, field, degree, *rest, **kw):
        if self._first_time(field, ("primes", degree)):
            self.counts["ffield.primes.count"] += len(result)
            want = gauss_count(field.q, degree)
            if len(result) != want:
                self.problems.append(f"q={field.q} d={degree}: {len(result)} primes, Gauss count {want}")

    def _after_family(self, result, duration, field, n, *rest, **kw):
        self.counts["ffield.family.curves"] += result.shape[0]
        want = field.q ** (2 * n + 1) - field.q ** (2 * n)
        if result.shape[0] != want:
            self.problems.append(f"q={field.q} n={n}: {result.shape[0]} curves, expected q^d - q^(d-1) = {want}")

    def _after_symbols(self, result, duration, field, rows, p):
        if self._first_time(field, ("symbols", p)):
            self.counts["ffield.symbols.distinct_primes"] += 1

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, layer, fn, after=None):
        def wrapper(*args, **kwargs):
            return self._span(name, layer, fn, args, kwargs, after)

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sub_partitions(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["partitions.sub_partitions.yielded"] += 1
                yield item

        return wrapper

    def _char_table(self, fn):
        def wrapper(field, p):
            self.counts["ffield.char_table.calls"] += 1
            if self._first_time(field, ("char_table", p)):
                self.counts["ffield.char_table.builds"] += 1
            return fn(field, p)

        return wrapper

    def _moment_usp(self, fn):
        span = self._timed("moments.moment_usp", "moments", fn)

        def wrapper(*args, **kwargs):
            if self._depth["linstat.exact"]:
                self.counts["linstat.exact.moment_calls"] += 1
            return span(*args, **kwargs)

        return wrapper

    def _statistic_exact(self, fn):
        def wrapper(n, nu, m, f):
            before = self.counts["linstat.exact.multisets"]
            result = self._span("linstat.exact", "linstat", fn, (n, nu, m, f), {})
            seen = self.counts["linstat.exact.multisets"] - before
            k = len({j for j, _ in f.coefficients} | {-j for j, _ in f.coefficients})
            if seen and seen != math.comb(k + m - 1, m):
                self.problems.append(f"m={m}: {seen} multisets enumerated, expected C({k}+{m}-1, {m})")
            return result

        return wrapper

    def _run_mc(self, fn):
        tracer = self

        def wrapper(n, cfg, stat_fn, stat_args, n_stats, threads=1):
            def timed_stat(theta, *a):
                start = perf_counter()
                try:
                    return stat_fn(theta, *a)
                finally:
                    tracer.mc_stat_s += perf_counter() - start

            def after(result, duration, *args):
                tracer.counts["haar.mc.samples"] += cfg.sample_count
                tracer.counts["haar.mc.blocks"] += -(-cfg.sample_count // tracer.sym.haar.MC_BLOCK_SIZE)
                by_n = tracer.mc_by_n[n]
                by_n[0] += cfg.sample_count
                by_n[1] += duration

            return self._span("haar.mc", "haar", fn, (n, cfg, timed_stat, stat_args, n_stats, threads), {}, after)

        return wrapper

    def _plan(self):
        """(module, attribute, wrapper factory) for every traced function."""
        sym = self.sym
        timed = self._timed
        return [
            (sym.partitions, "sub_partitions", self._sub_partitions),
            (sym.moments, "moment_usp", self._moment_usp),
            (sym.moments, "nongaussian_correction", lambda f: self._counted("moments.nongaussian_correction.calls", f)),
            (sym.haar, "moment_quadrature", lambda f: timed("haar.quadrature", "haar", f, self._after_quadrature)),
            (sym.haar, "run_mc", self._run_mc),
            (sym.linstat, "statistic_moment_exact", self._statistic_exact),
            (sym.linstat, "statistic_moments_mc", lambda f: timed("linstat.mc", "linstat", f)),
            (sym.ffield, "primes_of_degree", lambda f: timed("ffield.primes", "ffield", f, self._after_primes)),
            (sym.ffield, "is_irreducible", lambda f: self._counted("ffield.is_irreducible.calls", f)),
            (sym.ffield, "hyperelliptic_rows", lambda f: timed("ffield.family", "ffield", f, self._after_family)),
            (sym.ffield, "is_squarefree", lambda f: self._counted("ffield.is_squarefree.calls", f)),
            (sym.ffield, "char_table", self._char_table),
            (sym.ffield, "symbols_batch", lambda f: timed("ffield.symbols", "ffield", f, self._after_symbols)),
            (sym.ffield, "l_polynomials_batch", lambda f: timed("ffield.lpoly", "ffield", f)),
            (sym.ffield, "weighted_char_sums", lambda f: timed("ffield.charsum", "ffield", f)),
            (sym.ffield, "empirical_moment", lambda f: timed("ffield.empirical", "ffield", f)),
            (sym.ffield, "char_sum_distinct_primes", lambda f: timed("ffield.tuple", "ffield", f)),
            (sym.ffield, "char_sum_distinct_primes_weighted", lambda f: timed("ffield.tuple", "ffield", f)),
            (sym.ffield, "square_contribution", lambda f: timed("ffield.tuple", "ffield", f)),
        ]

    def install(self) -> None:
        sym = self.sym
        modules = [sym.package, sym.partitions, sym.moments, sym.haar, sym.linstat, sym.ffield]
        for home, attr, make in self._plan():
            original = getattr(home, attr)
            wrapper = make(original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        self._saved.append((sym.linstat, "itertools", sym.linstat.itertools))
        sym.linstat.itertools = _CountingItertools(self.counts)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- report --------------------------------------------------------------

    def useful_ratio_base(self, passes: int) -> str:
        """ffield.symbols.useful_ratio as distinct primes / calls, per traced pass."""
        return f"{self.counts['ffield.symbols.distinct_primes'] // passes}/{self.stats['ffield.symbols'].calls // passes}"

    def span_table(self) -> dict[str, dict]:
        return {name: {"calls": st.calls, "s": st.s, "self_s": st.self_s} for name, st in sorted(self.stats.items())}

    def metrics(self, passes: int, scale: float) -> dict[str, float]:
        """Per-layer metrics, per traced pass; times are multiplied by
        ``scale``, the probe's factor over the traced passes."""
        c, st = self.counts, self.stats
        out = {
            "partitions.sub_partitions.yielded": c["partitions.sub_partitions.yielded"],
            "moments.moment_usp.calls": st["moments.moment_usp"].calls,
            "moments.moment_usp.s": st["moments.moment_usp"].s,
            "moments.nongaussian_correction.calls": c["moments.nongaussian_correction.calls"],
            "haar.quadrature.calls": st["haar.quadrature"].calls,
            "haar.quadrature.s": st["haar.quadrature"].s,
            "haar.quadrature.grid_points": c["haar.quadrature.grid_points"],
            "haar.mc.s": st["haar.mc"].s,
            "haar.mc.samples": c["haar.mc.samples"],
            "haar.mc.blocks": c["haar.mc.blocks"],
            "haar.mc.stat_s": self.mc_stat_s,
            "haar.mc.draw_s": st["haar.mc"].s - self.mc_stat_s,
            "linstat.exact.s": st["linstat.exact"].s,
            "linstat.exact.self_s": st["linstat.exact"].self_s,
            "linstat.exact.multisets": c["linstat.exact.multisets"],
            "linstat.exact.moment_calls": c["linstat.exact.moment_calls"],
            "linstat.mc.s": st["linstat.mc"].s,
            "ffield.primes.s": st["ffield.primes"].s,
            "ffield.primes.count": c["ffield.primes.count"],
            "ffield.is_irreducible.calls": c["ffield.is_irreducible.calls"],
            "ffield.family.s": st["ffield.family"].s,
            "ffield.family.curves": c["ffield.family.curves"],
            "ffield.is_squarefree.calls": c["ffield.is_squarefree.calls"],
            "ffield.char_table.calls": c["ffield.char_table.calls"],
            "ffield.char_table.builds": c["ffield.char_table.builds"],
            "ffield.symbols.s": st["ffield.symbols"].s,
            "ffield.symbols.calls": st["ffield.symbols"].calls,
            "ffield.symbols.distinct_primes": c["ffield.symbols.distinct_primes"],
            "ffield.lpoly.s": st["ffield.lpoly"].s,
            "ffield.charsum.s": st["ffield.charsum"].s,
            "ffield.empirical.s": st["ffield.empirical"].s,
            "ffield.tuple.s": st["ffield.tuple"].s,
        }
        out.update({f"{layer}.self_s": self.layer_self[layer] for layer in ("moments", "haar", "linstat", "ffield")})
        out = {k: v * (scale if unit(k) == "s" else 1) / passes for k, v in out.items()}
        calls = st["ffield.symbols"].calls
        out["ffield.symbols.useful_ratio"] = c["ffield.symbols.distinct_primes"] / calls if calls else 0.0
        for n in (1, 3, 30):
            samples, seconds = self.mc_by_n.get(n, (0, 0.0))
            out[f"haar.mc.samples_per_s.n{n}"] = samples / (seconds * scale) if seconds else 0.0
        return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "samples_per_s" in name:
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    return "count"
