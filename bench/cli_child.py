"""Launcher for one traced CLI call: ``python bench/cli_child.py <verb> <flags>``.

Times ``import padic_cubic.cli`` itself, then runs ``cli.main`` with the
benchmark tracer installed.  The CLI's own output goes to stdout unchanged;
the last stderr line is the tracer summary (JSON), which bench/run.py merges
into the parent's trace.  Needs this checkout's ``src/`` on PYTHONPATH.
"""

import json
import sys
import time

from tracer import CLI_MAIN, Tracer, profile_cache_counts


def main() -> int:
    t0 = time.perf_counter_ns()
    import padic_cubic.cli as cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.count("cli.import_ns", import_ns)
    tracer.install()
    tracer.active = True
    try:
        code = tracer.span(CLI_MAIN, cli.main, sys.argv[1:])
    finally:
        tracer.active = False
        tracer.uninstall()
    cache = profile_cache_counts(cli.classify)
    if cache is not None:
        tracer.count("classify.profile_cache.hits", cache[0])
        tracer.count("classify.profile_cache.misses", cache[1])
    tracer.fold_seeds()
    sys.stdout.flush()
    print(json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
