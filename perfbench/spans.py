"""In-memory span tracer and the traced view of the depcomp library.

A span records its name, start, end, parent span and job id.  Spans are
kept in a list and written out once, when the run ends.  Span names are
``<layer>.<function>``, where the layer is the depcomp module the function
belongs to (``cli``, ``inversion``, ``io``, ``sampling``, ``core``).

Tracing measures each module from outside: the benchmark wraps the library
functions it calls itself, and, while a traced job runs, the names that
``depcomp.cli`` imported from the library, so each CLI verb's calls into
the library become child spans of the verb.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import asdict, dataclass
from types import SimpleNamespace

# Library functions the CLI calls, by the module that defines them.
CLI_BOUNDARY = {
    "random_system": "sampling",
    "sample_dcs": "sampling",
    "type_counts": "sampling",
    "ml_estimate": "sampling",
    "save_system": "io",
    "load_system": "io",
    "save_samples": "io",
    "load_samples": "io",
    "save_tensor": "io",
    "load_tensor": "io",
    "save_result": "io",
    "recover_system": "inversion",
}

# Library functions the benchmark's own jobs and checks call.
BENCH_CALLS = {
    "sample_dcs": "sampling",
    "type_counts": "sampling",
    "ml_estimate": "sampling",
    "load_system": "io",
    "load_tensor": "io",
    "load_result": "io",
    "recover_system": "inversion",
    "output_distribution": "core",
}

LAYERS = ("cli", "inversion", "io", "sampling", "core")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top of a job
    job: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def cli_boundary(self, cli_module):
        """Route ``depcomp.cli``'s library calls through spans while open."""
        originals = {name: getattr(cli_module, name) for name in CLI_BOUNDARY}
        try:
            for name, layer in CLI_BOUNDARY.items():
                setattr(cli_module, name, self.wrap(f"{layer}.{name}", originals[name]))
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli_module, name, fn)

    def busy(self) -> dict:
        """Total and self seconds per span name.

        A span's self time is its duration minus the durations of its direct
        children, which never overlap because calls are nested.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict = {}
        for s, c in zip(self.spans, child):
            total, own, calls = out.get(s.name, (0.0, 0.0, 0))
            out[s.name] = (total + s.end - s.start, own + s.end - s.start - c, calls + 1)
        return {name: {"total_s": t, "self_s": o, "calls": n} for name, (t, o, n) in out.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def library(tracer: Tracer | None = None) -> SimpleNamespace:
    """The library functions a job calls, wrapped in spans when ``tracer`` is set.

    ``lib.cli(argv)`` runs one CLI verb in-process with its chatter captured
    and returns ``(exit code, stderr text)``.
    """
    import depcomp
    from depcomp import cli
    from depcomp import io as dio

    def run_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        return code, err.getvalue()

    funcs = {
        name: getattr(dio if layer == "io" else depcomp, name) for name, layer in BENCH_CALLS.items()
    }
    if tracer is None:
        return SimpleNamespace(cli=run_cli, **funcs)

    def traced_cli(argv):
        return tracer.wrap(f"cli.{argv[0]}", run_cli)(argv)

    wrapped = {name: tracer.wrap(f"{BENCH_CALLS[name]}.{name}", fn) for name, fn in funcs.items()}
    return SimpleNamespace(cli=traced_cli, **wrapped)
