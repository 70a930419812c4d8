"""Span timing for the traced run, installed from outside the package.

Each traced function is replaced at the name its caller looks up: a module
global (`cli` imports most layer functions by name, `search` imports its
helpers by name, `inequalities.sweep` calls `iter_grid` and `evaluate_point`
as globals of its own module) or a class attribute.  Nothing in the package
is edited.

A span's self time is its duration minus the durations of the spans it
encloses.  The root span is `cli`, the whole of `crossint.cli.main`, so the
self times of one command add up to its duration.  `cli.self_s` is what is
left: argument parsing, the sweep loop and its sink, stream and sidecar I/O.
"""

from time import perf_counter


class Tracer:
    """Span totals, counters and duration samples of one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self._inner: list[float] = []  # enclosed span time, one slot per open span

    def _close(self, name: str, started: float, sample: bool) -> float:
        took = perf_counter() - started
        inner = self._inner.pop()
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        span[0] += 1
        span[1] += took
        span[2] += took - inner
        if self._inner:
            self._inner[-1] += took
        if sample:
            self.samples.setdefault(name, []).append(took)
        return took

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, *, sample=False, on_result=None):
        def traced(*args, **kwargs):
            self._inner.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, started, sample)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name, fn, item_counter):
        """Time each next() of the generator as one span; count the items."""

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self._inner.append(0.0)
                started = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(name, started, False)
                self.count(item_counter)
                yield item

        return traced

    def report(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "samples": self.samples}


def install() -> Tracer:
    """Wrap every traced name; returns the tracer that collects the spans."""
    from crossint import cli, compression, gensets, inequalities, search

    tracer = Tracer()

    def genset_nodes(result) -> None:
        nodes = result.stats["nodes"]
        tracer.count("search.genset.nodes", nodes)
        tracer.count(f"search.genset.nodes_{result.n}_{result.k}_{result.t}", nodes)

    def brute_nodes(result) -> None:
        tracer.count("search.brute.nodes", result.stats["nodes"])

    targets = [
        (cli, "main", "cli", {}),
        (cli, "record_to_line", "cli.record_to_line", {}),
        (cli, "parse_record_line", "cli.parse_record_line", {}),
        (cli.RecordDigest, "absorb", "cli.digest_absorb", {}),
        (cli, "read_family", "families.text_io", {}),
        (cli, "write_family", "families.text_io", {}),
        (cli, "read_genset", "gensets.text_io", {}),
        (cli, "write_genset", "gensets.text_io", {}),
        (cli, "left_compress", "compression.left_compress", {}),
        (cli, "is_left_compressed", "compression.is_left_compressed", {}),
        (cli, "minimal_genset", "gensets.minimal_genset", {}),
        (cli, "size_from_genset", "gensets.size_from_genset", {}),
        (cli, "upset_k", "gensets.upset_k", {}),
        (cli, "verify_main_theorem_small", "search.verify_main", {}),
        (inequalities, "evaluate_point", "inequalities.evaluate_point", {"sample": True}),
        (inequalities.SweepSummary, "absorb", "inequalities.summary_absorb", {}),
        (search, "genset_search_best_product", "search.genset", {"on_result": genset_nodes}),
        (search, "brute_force_best", "search.brute", {"on_result": brute_nodes}),
        (search, "shift_family", "compression.shift_family", {}),
        (search, "minimal_genset", "gensets.minimal_genset", {}),
        (search, "upset_k", "gensets.upset_k", {}),
        (search, "size_from_genset", "gensets.size_from_genset", {}),
        (search, "is_cross_t_intersecting", "families.is_cross_t_intersecting", {}),
        (search, "frankl_size", "frankl.frankl_size", {}),
        (compression, "shift_family", "compression.shift_family", {}),
        (gensets, "upset_k", "gensets.upset_k", {}),
    ]
    for owner, attr, name, options in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **options))
    inequalities.iter_grid = tracer.wrap_generator(
        "inequalities.iter_grid", inequalities.iter_grid, "inequalities.iter_grid.points"
    )
    return tracer
